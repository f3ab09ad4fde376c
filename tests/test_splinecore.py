"""Tests for the B-spline core: knots, Greville data, evaluation, moments."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splineqi import KnotSequence
from splineqi.partitions import random_clamped

from oracles import (
    basis_row_oracle,
    greville_point,
    greville_window,
    kernel_moment_oracle,
    knot_window,
    single_value_oracle,
    symmetric_coeff_oracle,
)


def bspline_oracle(knots, x):
    """Independent single-spline evaluator: textbook recursion, top-down."""
    p = len(knots) - 2

    def rec(lo, d, t):
        if d == 0:
            return 1.0 if knots[lo] <= t < knots[lo + 1] else 0.0
        acc = 0.0
        den = knots[lo + d] - knots[lo]
        if den > 0:
            acc += (t - knots[lo]) / den * rec(lo, d - 1, t)
        den = knots[lo + d + 1] - knots[lo + 1]
        if den > 0:
            acc += (knots[lo + d + 1] - t) / den * rec(lo + 1, d - 1, t)
        return acc

    return rec(0, p, x)


def row_oracle(ks, x):
    """Scalar span search and Cox-de Boor row, one point at a time, in the
    order of operations the batched ``basis_rows`` must reproduce."""
    t, k0, p, n = ks.knots, -(ks.m + ks.pad), ks.m, ks.n
    k = min(max(int(np.searchsorted(t, x, side="right")) - 1 + k0, 0), n - 1)
    while k < n - 1 and t[k + 1 - k0] <= t[k - k0]:
        k += 1
    while k > 0 and t[k + 1 - k0] <= t[k - k0]:
        k -= 1
    return k, np.asarray(basis_row_oracle(t, k - k0, p, x))


# ------------------------------------------------------------------ oracles
# The scalar paths that ``KnotSequence.moments`` and the array kernel rule
# replaced, kept verbatim (up to their interfaces) as references.


def kernel_rule_oracle(ks, deg, j, npts):
    """Gauss nodes span by span and weights from one node at a time."""
    t, k0 = ks.knots, -(ks.m + ks.pad)
    norm = (ks.knot(j + 1) - ks.knot(j - deg)) / (deg + 1)
    gx, gw = np.polynomial.legendre.leggauss(npts)
    nodes, wts = [], []
    for k in range(j - deg, j + 1):
        u0, u1 = ks.knot(k), ks.knot(k + 1)
        if u1 <= u0:
            continue
        mid, half = 0.5 * (u0 + u1), 0.5 * (u1 - u0)
        for xg, wg in zip(mid + half * gx, half * gw):
            nodes.append(xg)
            wts.append(wg * single_value_oracle(t, k0, deg, j, xg) / norm)
    return np.asarray(nodes), np.asarray(wts)


def per_knot_moments_oracle(knots, rmax, center=0.0, scale=1.0):
    """Orders 0..rmax of the kernel moments on ``knots[..., :]`` by the
    complete homogeneous recurrence as ``KnotSequence.moments`` ran it before
    it became one cumulative sum per order: one row update per knot and
    order, all windows at once (a Greville point is a one-knot window)."""
    u = (knots - np.asarray(center, dtype=float)[..., None]) / np.asarray(scale, dtype=float)[..., None]
    shape, u = u.shape[:-1], u.reshape(-1, u.shape[-1]).T  # u[k, index]
    h = np.zeros((rmax + 1, u.shape[1]))
    h[0] = 1.0
    for uk in u:
        for s in range(1, rmax + 1):
            h[s] += uk * h[s - 1]  # h_s += u_k h_{s-1}, upwards
    norm = np.array([math.comb(s + len(u) - 1, s) for s in range(rmax + 1)], dtype=float)
    return (h.T / norm).reshape(shape + (rmax + 1,))


def lam_oracle(window):
    """Spread gap via the pairwise squared-difference sum."""
    m = len(window)
    total = 0.0
    for r in range(m):
        for s in range(r + 1, m):
            total += (window[r] - window[s]) ** 2
    return total / (m * m * (m - 1))


def dual_moment2_oracle(window):
    """Second kernel moment from the pairwise product sum (r <= s)."""
    m = len(window)
    total = 0.0
    for r in range(m):
        for s in range(r, m):
            total += window[r] * window[s]
    return 2.0 * total / (m * (m + 1))


def basis_value(ks, i, x):
    """B_i(x), read from the basis row at x."""
    k, row = ks.basis_row(x)
    return float(row[i - k]) if 0 <= i - k <= ks.m else 0.0


def gauss_apply(rule, f):
    """f integrated against a kernel by its (nodes, weights) rule."""
    nodes, wts = rule
    return float(np.dot(wts, np.asarray(f(nodes), dtype=float)))


def kernel_rule(ks, kind, j, npts):
    """The live entries of the kernel rule of index j (``kernel_rules``)."""
    nodes, wts, live = ks.kernel_rules(kind, [j], npts)
    return nodes[live], wts[live]


class TestConstruction:
    def test_clamped_layout(self):
        ks = KnotSequence.clamped(2, [0.0, 0.25, 0.6, 1.0])
        assert ks.domain == (0.0, 1.0)
        assert ks.n == 3
        assert ks.nbasis == 5
        assert ks.knot(-2) == ks.knot(0) == 0.0
        assert ks.knot(3) == ks.knot(5) == 1.0

    def test_cardinal_layout(self):
        ks = KnotSequence.cardinal_uniform(3, 10, pad=2)
        assert ks.cardinal
        assert ks.domain == (0.0, 10.0)
        assert ks.knot(-5) == -5.0 and ks.knot(15) == 15.0

    def test_rejects_decreasing_knots(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            KnotSequence(2, [0.0, 0.0, 0.0, 0.5, 0.4, 1.0, 1.0, 1.0])

    def test_rejects_nonincreasing_breakpoints(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            KnotSequence.clamped(2, [0.0, 0.5, 0.5, 1.0])

    @pytest.mark.parametrize(
        "knots", [np.arange(12.0), [0, 0, 0.2, 0.5, 0.7, 1, 1, 1], [0, 0, 0, 0.2, 0.5, 0.7, 1, 1]]
    )
    def test_rejects_unclamped_knots(self, knots):
        # the basis needs degree + 1 equal knots at each domain end unless cardinal
        with pytest.raises(ValueError, match="^non-cardinal knots need 3 equal knots at each end of the domain$"):
            KnotSequence(2, knots)
        assert KnotSequence(2, knots, cardinal=True).cardinal

    @pytest.mark.parametrize(
        "knots, knot, mult",
        [
            ([0, 0, 0, 0.5, 0.5, 0.5, 0.5, 1, 1, 1], "0.5", 4),
            ([0, 0, 0, 0, 0.5, 1, 1, 1], "0", 4),
            ([0, 0, 0, 0.5, 1, 1, 1, 1, 1], "1", 5),
        ],
    )
    @pytest.mark.parametrize("cardinal", [False, True])
    def test_rejects_a_knot_repeated_more_than_degree_plus_one_times(self, knots, knot, mult, cardinal):
        # such a knot leaves a B-spline with empty support, whose kernel has no quadrature node
        with pytest.raises(ValueError, match=rf"^knot {knot} has multiplicity {mult}, above degree \+ 1 = 3$"):
            KnotSequence(2, knots, cardinal=cardinal)

    def test_knots_of_multiplicity_degree_plus_one_keep_every_kernel_live(self):
        ks = KnotSequence(2, [0, 0, 0, 0.5, 0.5, 0.5, 1, 1, 1])
        _, _, live = ks.kernel_rules("basis", np.asarray(ks.basis_indices), 4)
        assert live.any(axis=1).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_knots(self, bad):
        with pytest.raises(ValueError, match="finite"):
            KnotSequence(2, [0.0, 0.0, 0.0, bad, 1.0, 1.0, 1.0])

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: KnotSequence(0, [0.0, 1.0, 2.0]), "degree must be >= 1"),
            (lambda: KnotSequence(1, [0.0, 0.0, 1.0, 1.0], pad=-1), "pad must be >= 0"),
            (lambda: KnotSequence(1, [[0.0, 0.0], [1.0, 1.0]]), "knots must be a flat sequence"),
            (lambda: KnotSequence(2, [0.0, 0.0, 0.0, 1.0, 1.0]), "too few knots for this degree"),
            # the domain [t_1, t_2] of one degree-1 span is the point 1
            (lambda: KnotSequence(1, [0.0, 1.0, 1.0, 2.0]), "empty domain"),
            (lambda: KnotSequence.clamped(2, [0.5]), "need at least two breakpoints"),
            (lambda: KnotSequence.cardinal_uniform(2, 0), "nspans must be >= 1"),
            (lambda: KnotSequence.cardinal_uniform(2, 4, spacing=0.0), "spacing must be positive"),
            (lambda: KnotSequence.cardinal_uniform(2, 4, spacing=np.inf), "spacing must be finite, got inf"),
            (lambda: KnotSequence.cardinal_uniform(2, 4, spacing=np.nan), "spacing must be finite, got nan"),
            (lambda: KnotSequence.cardinal_uniform(2, 4, start=-np.inf), "start must be finite, got -inf"),
            (lambda: KnotSequence.cardinal_uniform(2, 4, start=np.nan), "start must be finite, got nan"),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_rejects_malformed_arguments(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()

    @pytest.mark.parametrize("degree", [-1, 0])
    def test_clamped_rejects_a_degree_below_one(self, degree):
        # checked before the end knots are repeated, which a negative degree cannot
        with pytest.raises(ValueError, match=f"^degree must be an integer >= 1, got {degree}$"):
            KnotSequence.clamped(degree, [0.0, 0.5, 1.0])

    @pytest.mark.parametrize(
        "degree, pad, message",
        [
            ("2", 4, "degree must be an integer >= 1, got '2'"),
            (2.0, 4, "degree must be an integer >= 1, got 2.0"),
            (0, 4, "degree must be an integer >= 1, got 0"),
            (2, "1", "pad must be an integer >= 0, got '1'"),
            (2, -1, "pad must be an integer >= 0, got -1"),
            (2, True, "pad must be an integer >= 0, got True"),
        ],
    )
    def test_cardinal_uniform_checks_degree_and_pad(self, degree, pad, message):
        # checked before the knots are made from them
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            KnotSequence.cardinal_uniform(degree, 5, pad=pad)

    def test_knot_outside_the_stored_range(self):
        ks = KnotSequence.clamped(2, [0.0, 0.5, 1.0])
        assert ks.knot(-2) == 0.0 and ks.knot(4) == 1.0
        for k in (-3, 5):
            with pytest.raises(IndexError, match=f"^knot index {k} outside stored range$"):
                ks.knot(k)

    @pytest.mark.parametrize(
        "k, error, message",
        [
            (True, ValueError, "^indices must be integers, got bool values$"),  # was read as knot 1
            (2.5, TypeError, "'float' object cannot be interpreted as an integer"),  # was numpy's IndexError
        ],
    )
    def test_knot_refuses_what_the_other_index_methods_refuse(self, k, error, message):
        ks = KnotSequence.clamped(2, np.linspace(0.0, 1.0, 5))
        with pytest.raises(error, match=message):
            ks.knot(k)

    def test_repr(self):
        assert repr(KnotSequence.clamped(2, [0.0, 0.5, 1.0])) == (
            "KnotSequence(degree=2, spans=2, clamped, domain=[0, 1])"
        )
        assert repr(KnotSequence.cardinal_uniform(3, 5, pad=1, spacing=0.5)) == (
            "KnotSequence(degree=3, spans=5, cardinal, domain=[0, 2.5])"
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_breakpoints(self, bad):
        with pytest.raises(ValueError, match="finite"):
            KnotSequence.clamped(2, [0.0, 0.5, bad, 1.0])
        with pytest.raises(ValueError, match="finite"):
            KnotSequence.clamped(2, [bad, 0.5, 1.0])


class TestGreville:
    def test_midpoint_of_two_knots(self):
        ks = KnotSequence.clamped(2, [0.0, 1.0, 2.0])
        # window {t_0, t_1} = {0, 1}
        assert ks.greville(1) == pytest.approx(0.5)

    def test_mean_of_consecutive_integers(self):
        ks = KnotSequence.cardinal_uniform(3, 12)
        for j in range(ks.nbasis):
            assert ks.greville(j) == pytest.approx(j - 1.0)

    def test_wide_window(self):
        ks = KnotSequence.clamped(2, [0.0, 3.0, 4.0])
        assert ks.greville(1) == pytest.approx(1.5)

    def test_out_of_range_rejected(self):
        ks = KnotSequence.clamped(2, [0.0, 1.0])
        with pytest.raises(IndexError):
            ks.greville(50)

    def test_strictly_increasing_on_distinct_interior(self):
        rng = np.random.default_rng(1)
        for m in (2, 3, 4):
            ks = random_clamped(m, 9, rng)
            theta = [ks.greville(j) for j in range(ks.nbasis)]
            assert np.all(np.diff(theta) > 0)


class TestSymmetricCoeffs:
    def test_order_zero_is_one(self):
        ks = KnotSequence.clamped(3, [0.0, 0.4, 1.0])
        for j in range(ks.nbasis):
            assert ks.moments("symmetric", [j], 0)[0, 0] == 1.0

    def test_quadratic_product(self):
        ks = KnotSequence.clamped(2, [0.0, 1.0, 2.0])
        # window {0, 1} -> product 0
        assert ks.moments("symmetric", [1], 2)[0, 2] == pytest.approx(0.0)

    def test_cubic_pair_sum(self):
        ks = KnotSequence.cardinal_uniform(3, 8)
        # window {0, 1, 2}: (0*1 + 0*2 + 1*2)/3
        j = next(j for j in range(ks.nbasis) if ks.greville(j) == pytest.approx(1.0))
        assert ks.moments("symmetric", [j], 2)[0, 2] == pytest.approx(2.0 / 3.0)

    def test_order_above_degree_rejected(self):
        ks = KnotSequence.clamped(2, [0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="0 <= r <= degree"):
            ks.moments("symmetric", [1], 3)

    def test_matches_poly_expansion(self):
        rng = np.random.default_rng(2)
        ks = random_clamped(5, 7, rng)
        for j in (4, 6, 8):
            w = greville_window(ks, j)
            coeffs = np.poly(w)
            got = ks.moments("symmetric", [j], 5)[0]
            for r in range(6):
                sig = (-1.0) ** r * coeffs[r]
                assert got[r] == pytest.approx(
                    sig / math.comb(5, r), rel=1e-12
                )


class TestLam:
    def test_uniform_quadratic(self):
        ks = KnotSequence.clamped(2, np.linspace(0.0, 1.0, 11))
        h = 0.1
        for j in range(2, ks.nbasis - 2):
            assert ks.lam(j) == pytest.approx(h * h / 4.0, rel=1e-12)

    def test_single_pair(self):
        ks = KnotSequence.clamped(2, [0.0, 3.0, 4.0])
        assert ks.lam(1) == pytest.approx(9.0 / 4.0)

    def test_coincident_window_is_zero(self):
        ks = KnotSequence.clamped(3, [0.0, 0.5, 1.0])
        assert ks.lam(0) == 0.0
        assert ks.lam(ks.nbasis - 1) == 0.0

    def test_degree_one_rejected(self):
        ks = KnotSequence(1, [0.0, 0.0, 0.5, 1.0, 1.0])
        with pytest.raises(ValueError):
            ks.lam(1)

    def test_agrees_with_squared_difference_sum(self):
        rng = np.random.default_rng(3)
        for m in (2, 3, 4, 6):
            ks = random_clamped(m, 8, rng)
            for j in range(ks.nbasis):
                want = lam_oracle(greville_window(ks, j).tolist())
                got = ks.lam(j)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
                if j not in (0, ks.nbasis - 1):
                    assert got > 0.0


class TestEvaluation:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_partition_of_unity(self, m):
        rng = np.random.default_rng(m)
        ks = random_clamped(m, 10, rng)
        xs = rng.uniform(ks.a, ks.b, 1000)
        for x in xs:
            _, row = ks.basis_row(x)
            assert abs(row.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_marsden_reproduction(self, m):
        rng = np.random.default_rng(10 + m)
        ks = random_clamped(m, 9, rng)
        xs = np.linspace(ks.a, ks.b, 257)
        width = max(1.0, ks.b - ks.a)
        sym = ks.moments("symmetric", np.arange(ks.nbasis), m)
        for r in range(m + 1):
            worst = 0.0
            for x in xs:
                k, row = ks.basis_row(x)
                val = sum(row[s] * sym[k + s, r] for s in range(m + 1))
                worst = max(worst, abs(val - x**r))
            assert worst < 1e-9 * width**r

    def test_against_independent_recursion(self):
        rng = np.random.default_rng(21)
        ks = random_clamped(3, 8, rng)
        xs = rng.uniform(ks.a, ks.b, 60)
        for x in xs:
            for i in range(ks.nbasis):
                window = knot_window(ks, i, -3, 5).tolist()
                assert basis_value(ks, i, x) == pytest.approx(bspline_oracle(window, x), abs=1e-13)

    def test_single_value_matches_row(self):
        rng = np.random.default_rng(22)
        ks = random_clamped(4, 7, rng)
        for x in rng.uniform(ks.a, ks.b, 40):
            for i in range(ks.nbasis):
                assert single_value_oracle(ks.knots, -4, 4, i, x) == pytest.approx(
                    basis_value(ks, i, x), abs=1e-13
                )

    def test_outside_domain_rejected(self):
        ks = KnotSequence.clamped(2, [0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="outside domain"):
            ks.basis_row(1.5)

    def test_basis_row_refuses_many_points(self):
        # the row at 0.1 alone was returned for both points
        ks = KnotSequence.clamped(2, np.linspace(0.0, 1.0, 5))
        with pytest.raises(ValueError, match=r"^x must be a scalar, got shape \(2,\)$"):
            ks.basis_row(np.array([0.1, 0.9]))

    def test_endpoint_values(self):
        ks = KnotSequence.clamped(3, [0.0, 0.3, 1.0])
        assert basis_value(ks, 0, 0.0) == pytest.approx(1.0)
        assert basis_value(ks, ks.nbasis - 1, 1.0) == pytest.approx(1.0)

    def test_interior_multiplicity_tolerated(self):
        # evaluation copes with repeated interior knots even though the
        # operator families reject them
        ks = KnotSequence(2, [0, 0, 0, 0.3, 0.3, 0.7, 1, 1, 1])
        assert not ks.interior_strictly_increasing
        for x in np.linspace(0.0, 1.0, 41):
            _, row = ks.basis_row(x)
            assert abs(row.sum() - 1.0) < 1e-12


class TestBasisRows:
    @staticmethod
    def sequences():
        rng = np.random.default_rng(50)
        for m in (1, 2, 3, 4, 5):
            yield random_clamped(m, 12, rng)
        yield KnotSequence.cardinal_uniform(3, 10, pad=2)
        yield KnotSequence(2, [0, 0, 0, 0.3, 0.3, 0.7, 1, 1, 1])
        yield KnotSequence(3, [0, 0, 0, 0, 0.2, 0.5, 0.5, 0.5, 0.9, 1, 1, 1, 1])

    @staticmethod
    def points(ks, rng):
        bp = np.unique(ks.knots)
        return np.concatenate([rng.uniform(ks.a, ks.b, 200), bp[(bp >= ks.a) & (bp <= ks.b)]])

    def test_bitwise_equal_to_scalar_rows(self):
        rng = np.random.default_rng(51)
        for ks in self.sequences():
            xs = self.points(ks, rng)
            k, rows = ks.basis_rows(xs)
            for x, kk, row in zip(xs, k, rows):
                k1, row1 = ks.basis_row(x)
                k2, row2 = row_oracle(ks, x)
                assert kk == k1 == k2
                assert np.array_equal(row, row1) and np.array_equal(row, row2), (ks, x)

    def test_against_scipy_design_matrix(self):
        interpolate = pytest.importorskip("scipy.interpolate")
        rng = np.random.default_rng(52)
        for ks in self.sequences():
            xs = self.points(ks, rng)
            assert xs.max() == ks.b
            k, rows = ks.basis_rows(xs)
            ours = np.zeros((len(xs), ks.nbasis + 2 * ks.pad))
            np.put_along_axis(ours, k[:, None] + ks.pad + np.arange(ks.m + 1), rows, axis=1)
            ref = interpolate.BSpline.design_matrix(xs, ks.knots, ks.m).toarray()
            np.testing.assert_allclose(ours, ref, rtol=1e-13, atol=1e-13)

    def test_domain_and_shape(self):
        ks = KnotSequence.clamped(2, [0.0, 0.5, 1.0])
        k, rows = ks.basis_rows([])
        assert k.shape == (0,) and rows.shape == (0, 3)
        with pytest.raises(ValueError, match=r"x=1\.5 outside domain \[0\.0, 1\.0\]"):
            ks.basis_rows([0.2, 1.5, -1.0])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=rf"^x={bad} outside domain \[0\.0, 1\.0\]$"):
                ks.basis_rows([0.2, bad])


def kernel_index_range(ks, kind):
    """First and last index whose ``kind`` kernel ``moments`` accepts."""
    if kind == "basis":
        return -ks.pad, len(ks.knots) - 2 - ks.m - ks.pad
    return ks.greville_range() if ks.cardinal else (1, ks.nbasis - 2)


def kernel_pieces(ks, kind, js):
    """``KnotSequence._kernel_pieces`` at indices checked by ``_indices``."""
    return ks._kernel_pieces(kind, ks._indices(kind, js))


class TestKernelPieces:
    @pytest.mark.parametrize(
        "kind, m",
        [("dual", 2), ("dual", 3), ("dual", 4), ("dual", 5), ("dual", 7), ("basis", 1), ("basis", 2), ("basis", 5)],
    )
    def test_pieces_match_single_values(self, kind, m):
        # dual kernel j is the degree-(m-2) spline B_{j-1}, basis kernel j the degree-m B_j
        deg, shift = (m - 2, -1) if kind == "dual" else (m, 0)
        ks = random_clamped(m, 9, np.random.default_rng(53 + deg))
        t, k0 = ks.knots, -ks.m
        lo, hi = kernel_index_range(ks, kind)
        js = np.arange(lo, hi + 1)
        pieces = kernel_pieces(ks, kind, js)
        assert pieces.shape == (len(js), deg + 1, deg + 1)
        for g, j in enumerate(js + shift):
            w = t[j - deg - k0 : j + 2 - k0]
            integral = (w[-1] - w[0]) / (deg + 1)
            for r in range(deg + 1):
                if w[r + 1] <= w[r]:
                    assert not pieces[g, r].any()
                    continue
                for tau in (0.0, 0.3, 0.71):
                    x = w[r] + (w[r + 1] - w[r]) * tau
                    tau = (x - w[r]) / (w[r + 1] - w[r])
                    got = np.polynomial.polynomial.polyval(tau, pieces[g, r]) * integral
                    assert got == pytest.approx(single_value_oracle(t, k0, deg, j, x), abs=1e-13)

    @pytest.mark.parametrize("kind, m", [("dual", 2), ("dual", 3), ("dual", 4), ("dual", 6), ("basis", 2), ("basis", 4)])
    def test_pieces_do_not_depend_on_the_call(self, kind, m):
        # the cached table gives every call the bits of a fresh sequence,
        # whatever was asked before and however the indices are grouped
        rng = np.random.default_rng(55 + m)
        other = "basis" if kind == "dual" else "dual"
        for make in (
            lambda: random_clamped(m, 9, np.random.default_rng(56 + m), ratio=1e6),
            lambda: KnotSequence.cardinal_uniform(m, 5, pad=2, start=-0.7, spacing=0.3),
        ):
            ks = make()
            lo, hi = kernel_index_range(ks, kind)
            js = rng.permutation(np.arange(lo, hi + 1))[: (hi - lo) // 2 + 1]
            fresh = kernel_pieces(make(), kind, js)
            others = np.setdiff1d(np.arange(lo, hi + 1), js)
            kernel_pieces(ks, kind, others)
            kernel_pieces(ks, other, [kernel_index_range(ks, other)[0]])
            assert kernel_pieces(ks, kind, js).tobytes() == fresh.tobytes()
            one = np.concatenate([kernel_pieces(make(), kind, [j]) for j in js])
            assert one.tobytes() == fresh.tobytes()
            assert kernel_pieces(ks, kind, js.reshape(-1, 1))[:, 0].tobytes() == fresh.tobytes()
            for j in (lo - 1, hi + 1):  # the range is every index the kind accepts
                with pytest.raises((IndexError, ValueError)):
                    kernel_pieces(ks, kind, [j])

    def test_pieces_are_copies_of_the_cache(self):
        ks = KnotSequence.clamped(2, [0.0, 0.3, 0.5, 1.0])
        got = kernel_pieces(ks, "basis", [1, 2])
        want = got.copy()
        got[...] = np.nan
        assert kernel_pieces(ks, "basis", [1, 2]).tobytes() == want.tobytes()


class TestKernelsAgainstExactValues:
    """The rule table and the power-form pieces against the exact value of
    each kernel at its rule nodes: Cox-de Boor in rationals on the float
    knots and nodes.  Both bounds are relative to the kernel's largest value
    at the nodes.  The table's 1e-14 lies above the forward error of the
    recursion, whose terms are all nonnegative (about 5 roundings a level,
    40 ulps at degree 7); the pieces' 1e-12 lies above the 1.5e-13 they were
    measured to differ from the table on such partitions."""

    @pytest.mark.parametrize("m", [3, 7])
    def test_rules_and_pieces_at_the_rule_nodes(self, m):
        npts = 4
        ks = random_clamped(m, 12, np.random.default_rng(7), ratio=1e4)
        gw = np.polynomial.legendre.leggauss(npts)[1]
        for kind, deg, shift in (("basis", m, 0), ("dual", m - 2, -1)):
            lo, hi = kernel_index_range(ks, kind)
            js = np.arange(lo, hi + 1)
            nodes, wts, live = ks.kernel_rules(kind, js, npts)
            pieces = kernel_pieces(ks, kind, js)
            for g, j in enumerate(js + shift):  # the kernel is B_j of degree deg
                w = knot_window(ks, j, -deg, deg + 2)
                exact_w = [Fraction(u) for u in w.tolist()]
                scale = (deg + 1) / (exact_w[-1] - exact_w[0])
                on = live[g]
                hg = ((0.5 * np.diff(w))[:, None] * gw).ravel()[on]  # the rule's weight before the kernel value
                span = np.repeat(np.arange(deg + 1), npts)[on]
                xs = nodes[g][on].tolist()
                exact = [scale * single_value_oracle(exact_w, j - deg, deg, j, Fraction(x)) for x in xs]
                top = float(max(exact))
                for x, wt, h, r, value in zip(xs, wts[g][on], hg, span, exact):
                    assert abs(Fraction(wt) - Fraction(h) * value) <= 1e-14 * h * top, (kind, j, x)
                    tau = (Fraction(x) - exact_w[r]) / (exact_w[r + 1] - exact_w[r])
                    piece = sum(Fraction(c) * tau**p for p, c in enumerate(pieces[g, r].tolist()))
                    assert abs(piece - value) <= 1e-12 * top, (kind, j, x)


class TestDualMoments:
    def test_zeroth_is_one(self):
        rng = np.random.default_rng(40)
        for m in (2, 3, 5):
            ks = random_clamped(m, 8, rng)
            for i in range(1, ks.nbasis - 1):
                assert ks.dual_moment(i, 0) == 1.0

    def test_first_is_greville(self):
        rng = np.random.default_rng(41)
        for m in (2, 3, 4):
            ks = random_clamped(m, 8, rng)
            for i in range(1, ks.nbasis - 1):
                assert ks.dual_moment(i, 1) == pytest.approx(ks.greville(i), rel=1e-12)

    def test_second_closed_form_quadratic(self):
        ks = KnotSequence.clamped(2, [0.0, 1.0, 2.0])
        # window {0, 1}: (2/6)(0 + 0 + 1) = 1/3
        assert ks.dual_moment(1, 2) == pytest.approx(1.0 / 3.0, rel=1e-13)

    def test_second_matches_pair_sum(self):
        rng = np.random.default_rng(42)
        for m in (2, 3, 4, 6):
            ks = random_clamped(m, 7, rng)
            for i in range(1, ks.nbasis - 1):
                w = greville_window(ks, i).tolist()
                assert ks.dual_moment(i, 2) == pytest.approx(dual_moment2_oracle(w), rel=1e-12)

    def test_moment_gap_identity(self):
        # second kernel moment exceeds the symmetric coefficient by 2m/(m+1) lam;
        # the gap is shift-invariant, so evaluate it centred at the anchor to
        # keep full relative precision
        rng = np.random.default_rng(43)
        for m in (2, 3, 4, 5):
            ks = random_clamped(m, 8, rng)
            for i in range(1, ks.nbasis - 1):
                c = ks.greville(i)
                nodes, wts = kernel_rule(ks, "dual", i, (m + 2) // 2 + 1)
                mu2c = float(np.dot(wts, (nodes - c) ** 2))
                gap = mu2c - ks.moments("symmetric", [i], 2, center=c)[0, 2]
                want = 2.0 * m / (m + 1.0) * ks.lam(i)
                assert gap == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_end_index_rejected_on_clamped(self):
        ks = KnotSequence.clamped(3, [0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="interior range"):
            ks.dual_moment(0, 1)


class TestIntegrals:
    def test_uniform_interior(self):
        ks = KnotSequence.clamped(2, np.linspace(0.0, 1.0, 11))
        for i in range(2, ks.nbasis - 2):
            assert ks.basis_integrals()[i] == pytest.approx(0.1, rel=1e-13)

    def test_clamped_end(self):
        ks = KnotSequence.clamped(2, [0.0, 0.3, 1.0])
        assert ks.basis_integrals()[0] == pytest.approx(0.1)

    def test_sum_is_domain_width(self):
        rng = np.random.default_rng(50)
        for m in (1, 2, 3, 5):
            ks = random_clamped(m, 9, rng)
            total = sum(ks.basis_integrals().tolist())
            assert total == pytest.approx(ks.b - ks.a, rel=1e-12)

    def test_domain_integral_matches_basis_integral_when_clamped(self):
        # the full-support integral (t_{i+1} - t_{i-m}) / (m + 1)
        ks = KnotSequence.clamped(3, [0.0, 0.2, 0.9, 1.0])
        for i in range(ks.nbasis):
            assert ks.basis_integrals()[i] == (ks.knot(i + 1) - ks.knot(i - 3)) / 4

    def test_domain_integrals_sum_on_cardinal(self):
        ks = KnotSequence.cardinal_uniform(3, 12, pad=2)
        total = sum(ks.basis_integrals().tolist())
        assert total == pytest.approx(12.0, rel=1e-12)


class TestBasisKernels:
    def test_basis_moments_zero_and_one(self):
        ks = KnotSequence.cardinal_uniform(3, 16, pad=3)
        for i in (5, 8, 11):
            assert ks.basis_moment(i, 0) == 1.0
            assert ks.basis_moment(i, 1) == pytest.approx(ks.greville(i), rel=1e-12)

    def test_cubic_central_second_moment(self):
        # variance of the unit cardinal cubic kernel is 1/3
        ks = KnotSequence.cardinal_uniform(3, 16, pad=3)
        i = ks.nbasis // 2
        c = ks.greville(i)
        m2 = ks.basis_moment(i, 2) - c * c
        assert m2 == pytest.approx(1.0 / 3.0, rel=1e-12)


class TestClosedFormMoments:
    """The closed-form kernel moments against Gauss quadrature of x**r."""

    @pytest.mark.parametrize("m", range(2, 8))
    def test_dual_moments_match_gauss(self, m):
        ks = random_clamped(m, 9, np.random.default_rng(60 + m))
        for i in range(1, ks.nbasis - 1):
            for r in range(m + 2):
                want = gauss_apply(kernel_rule(ks, "dual", i, 8), lambda x: x**r)
                assert ks.dual_moment(i, r) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("m", range(2, 8))
    def test_basis_moments_match_gauss(self, m):
        ks = random_clamped(m, 9, np.random.default_rng(70 + m))
        for i in range(ks.nbasis):
            for r in range(m + 2):
                want = gauss_apply(kernel_rule(ks, "basis", i, 8), lambda x: x**r)
                assert ks.basis_moment(i, r) == pytest.approx(want, rel=1e-12)

    def test_repeated_knots_inside_a_window(self):
        ks = KnotSequence(3, [0, 0, 0, 0, 0.3, 0.3, 0.7, 1, 1, 1, 1])
        # dual window t_1..t_3 = (0.3, 0.3, 0.7): the linear kernel 2(0.7-x)/0.16
        assert ks.dual_moment(3, 1) == pytest.approx((0.3 + 0.3 + 0.7) / 3, rel=1e-14)
        for r in range(5):
            for i in range(1, ks.nbasis - 1):
                want = gauss_apply(kernel_rule(ks, "dual", i, 8), lambda x: x**r)
                assert ks.dual_moment(i, r) == pytest.approx(want, rel=1e-12)
            for i in range(ks.nbasis):
                want = gauss_apply(kernel_rule(ks, "basis", i, 8), lambda x: x**r)
                assert ks.basis_moment(i, r) == pytest.approx(want, rel=1e-12)

    def test_negative_order_rejected(self):
        ks = KnotSequence.clamped(3, [0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="moment order"):
            ks.dual_moment(1, -1)
        with pytest.raises(ValueError, match="moment order"):
            ks.basis_moment(1, -1)

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(2, 6),
        spans=st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=9),
        kind=st.sampled_from(["dual_moment", "basis_moment"]),
        data=st.data(),
    )
    def test_centred_moment_is_affine_invariant(self, m, spans, kind, data):
        bp = np.concatenate([[0.0], np.cumsum(spans)])
        bp /= bp[-1]
        ks = KnotSequence.clamped(m, bp)
        i = data.draw(st.integers(1, ks.nbasis - 2), label="i")
        r = data.draw(st.integers(0, m + 1), label="r")
        c = ks.greville(i)
        want = getattr(ks, kind)(i, r, center=c)
        shifted = getattr(KnotSequence.clamped(m, bp + 1e4), kind)(i, r, center=c + 1e4)
        assert shifted == pytest.approx(want, rel=1e-9, abs=1e-10)
        scaled = getattr(KnotSequence.clamped(m, bp * 1e-3), kind)(
            i, r, center=c * 1e-3, scale=1e-3
        )
        assert scaled == pytest.approx(want, rel=1e-12, abs=1e-14)


class TestBatchedMoments:
    """``KnotSequence.moments`` against the scalar methods, one index at a time."""

    @staticmethod
    def _sequences(m):
        rng = np.random.default_rng(80 + m)
        yield random_clamped(m, 9, rng, ratio=1e6)
        yield KnotSequence(m, np.concatenate([[0.0] * m, [0, 0.3, 0.3, 0.7, 1], [1.0] * m]))
        yield KnotSequence.clamped(m, 1e4 + np.linspace(0.0, 1.0, 7))
        yield KnotSequence.cardinal_uniform(m, 5, pad=2)

    @pytest.mark.parametrize("m", range(2, 8))
    def test_kernel_moments_and_points_bitwise_equal_to_the_scalar_path(self, m):
        for ks in self._sequences(m):
            lo, hi = ks.greville_range()
            basis = np.arange(lo + 1, hi)
            dual = np.arange(lo, hi + 1) if ks.cardinal else np.arange(1, ks.nbasis - 1)
            dual = dual[[ks.knot(j) > ks.knot(j - m + 1) for j in dual]]
            points = np.arange(lo, hi + 1)
            c, s = greville_point(ks, ks.nbasis // 2), ks.b - ks.a
            for kind, js, scalar in (
                ("basis", basis, lambda j, r: kernel_moment_oracle(knot_window(ks, j, -m, m + 2), r, c, s)),
                ("dual", dual, lambda j, r: kernel_moment_oracle(greville_window(ks, j), r, c, s)),
                ("point", points, lambda j, r: ((greville_window(ks, j).mean() - c) / s) ** r),
            ):
                got = ks.moments(kind, js, m + 1, center=c, scale=s)
                assert got.shape == (len(js), m + 2)
                want = np.array([[scalar(j, r) for r in range(m + 2)] for j in js])
                if kind == "point":  # powers by repeated products, not pow
                    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
                else:
                    np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("m", range(2, 8))
    def test_symmetric_coefficients_match_the_scalar_path(self, m):
        for ks in self._sequences(m):
            lo, hi = ks.greville_range()
            js = np.arange(lo, hi + 1)
            centers = np.array([greville_window(ks, j).mean() for j in js])
            got = ks.moments("symmetric", js, m, center=centers, scale=0.5)
            for j, row, c in zip(js, got, centers):
                for r in range(m + 1):
                    want = symmetric_coeff_oracle(ks, j, r, center=c, scale=0.5)
                    assert row[r] == pytest.approx(want, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("m", range(1, 8))
    def test_one_index_methods_are_the_batched_values(self, m):
        for ks in self._sequences(m):
            lo, hi = ks.greville_range()
            js = np.arange(lo, hi + 1)
            theta = ks.moments("point", js, 1)[:, 1]
            assert [ks.greville(j) for j in js] == theta.tolist()
            if m < 2:
                continue
            lam = -ks.moments("symmetric", js, 2, center=theta)[:, 2]
            assert [ks.lam(j) for j in js] == lam.tolist()
            basis = np.arange(lo + 1, hi)
            got = ks.moments("basis", basis, m + 1, center=0.25)
            for j, row in zip(basis.tolist(), got.tolist()):
                assert [ks.basis_moment(j, r, center=0.25) for r in range(m + 2)] == row
            dual = np.arange(lo, hi + 1) if ks.cardinal else np.arange(1, ks.nbasis - 1)
            dual = dual[[ks.knot(j) > ks.knot(j - m + 1) for j in dual]]
            got = ks.moments("dual", dual, m + 1, center=0.25)
            for j, row in zip(dual.tolist(), got.tolist()):
                assert [ks.dual_moment(j, r, center=0.25) for r in range(m + 2)] == row

    def test_shapes_and_broadcast_centres(self):
        ks = random_clamped(3, 6, np.random.default_rng(90))
        js = np.array([[1, 2, 3], [4, 5, 6]])
        centers = np.array([[0.1], [0.7]])
        got = ks.moments("dual", js, 2, center=centers)
        assert got.shape == (2, 3, 3)
        assert got[1, 2, 2] == ks.dual_moment(6, 2, center=0.7)
        assert ks.moments("basis", np.arange(0), 3).shape == (0, 4)

    def test_invalid_indices_raise_as_the_scalar_methods(self):
        ks = KnotSequence.clamped(3, np.linspace(0.0, 1.0, 6))
        with pytest.raises(ValueError, match="outside interior range"):
            ks.moments("dual", [1, 2, 0], 1)
        with pytest.raises(IndexError, match="basis kernel window"):
            ks.moments("basis", [3, ks.nbasis + 1], 1)
        with pytest.raises(IndexError, match="Greville index"):
            ks.moments("point", [-5, 1], 1)
        with pytest.raises(ValueError, match="order r=4"):
            ks.moments("symmetric", [1], 4)
        repeated = KnotSequence(3, [0, 0, 0, 0, 0.5, 0.5, 0.5, 1, 1, 1, 1])
        with pytest.raises(ValueError, match="degenerate dual kernel window at index 3"):
            repeated.moments("dual", [1, 2, 3, 4], 1)
        with pytest.raises(ValueError, match="degree >= 2"):
            KnotSequence.clamped(1, [0.0, 0.5, 1.0]).moments("dual", [1], 1)


class TestMomentRecurrence:
    """The cumulative-sum recurrence and the broadcast ``scale`` of
    ``KnotSequence.moments``, bit for bit."""

    @staticmethod
    def _cases(m):
        rng = np.random.default_rng(120 + m)
        for ks in (
            random_clamped(m, 9, rng, ratio=1e6),
            KnotSequence(m, np.concatenate([[0.0] * m, [0, 0.3, 0.3, 0.7, 1], [1.0] * m])),
            KnotSequence.clamped(m, 1e4 + np.linspace(0.0, 1.0, 7)),
            KnotSequence.cardinal_uniform(m, 5, pad=2),
            # products of -1e-200 underflow: the first term of a sum is -0.0
            KnotSequence.clamped(m, [-1e-200, 1e-200, 1.0]),
        ):
            lo, hi = ks.greville_range()
            basis = np.arange(lo + 1, hi)
            dual = np.arange(lo, hi + 1) if ks.cardinal else np.arange(1, ks.nbasis - 1)
            dual = dual[[ks.knot(j) > ks.knot(j - m + 1) for j in dual]]
            points = np.arange(lo, hi + 1)
            yield ks, "basis", basis, np.array([knot_window(ks, j, -m, m + 2) for j in basis])
            yield ks, "dual", dual, np.array([greville_window(ks, j) for j in dual]).reshape(len(dual), m)
            yield ks, "point", points, np.array([[ks.greville(j)] for j in points])

    @pytest.mark.parametrize("m", range(2, 7))
    def test_cumulative_sums_are_the_per_knot_loop(self, m):
        rng = np.random.default_rng(130 + m)
        for ks, kind, js, knots in self._cases(m):
            rmax = m + 2
            for center, scale in (
                (0.0, 1.0),
                (ks.greville(ks.nbasis // 2), ks.b - ks.a),
                (rng.uniform(ks.a, ks.b, len(js)), rng.uniform(0.1, 3.0, len(js))),
            ):
                got = ks.moments(kind, js, rmax, center=center, scale=scale)
                want = per_knot_moments_oracle(knots, rmax, center, scale)
                assert got.tobytes() == want.tobytes(), (kind, center, scale)

    def test_first_term_minus_zero_sums_to_plus_zero(self):
        # u = -1e-200: h_1 = u, h_2 underflows to +0.0 and u * h_2 = -0.0; the
        # per-knot sum started from +0.0, so a lone -0.0 term gave +0.0
        ks = KnotSequence.clamped(3, [-1e-200, 1e-200, 1.0])
        got = ks.moments("point", [0], 3)
        assert got[0, 3] == 0.0 and not np.signbit(got[0, 3])
        assert got.tobytes() == per_knot_moments_oracle(np.array([[ks.greville(0)]]), 3).tobytes()

    @pytest.mark.parametrize("kind", ["point", "symmetric", "dual", "basis"])
    def test_array_scale_is_the_scalar_calls(self, kind):
        rng = np.random.default_rng(140)
        for m in (2, 3, 5):
            for ks in (random_clamped(m, 9, rng, ratio=1e3), KnotSequence.cardinal_uniform(m, 6, pad=2)):
                lo, hi = ks.greville_range()
                js = np.arange(lo + 1, hi) if kind != "dual" else np.arange(1, ks.nbasis - 1)
                rmax = m if kind == "symmetric" else m + 1
                center = rng.uniform(ks.a, ks.b, len(js))
                scale = np.concatenate([rng.uniform(0.01, 5.0, len(js) - 2), [1.0, 0.25]])
                got = ks.moments(kind, js, rmax, center=center, scale=scale)
                for j, c, sc, row in zip(js.tolist(), center.tolist(), scale.tolist(), got):
                    assert row.tobytes() == ks.moments(kind, [j], rmax, center=c, scale=sc)[0].tobytes()
                # one centre and scale per row of a stencil, as the near-best assembly uses them
                stencils = js[1:-1, None] + np.arange(-1, 2)
                got = ks.moments(kind, stencils, rmax, center=center[1:-1, None], scale=scale[1:-1, None])
                assert got.shape == stencils.shape + (rmax + 1,)
                for g, row in enumerate(stencils):
                    want = ks.moments(kind, row, rmax, center=center[g + 1], scale=scale[g + 1])
                    assert got[g].tobytes() == want.tobytes()


class TestKernelRules:
    """The array kernel rule against the node-at-a-time scalar path."""

    @staticmethod
    def sequences():
        rng = np.random.default_rng(95)
        for m in (2, 3, 4, 5, 7):
            yield random_clamped(m, 9, rng, ratio=1e6)
            yield KnotSequence.cardinal_uniform(m, 6, pad=2, start=-1.3, spacing=0.37)
            yield KnotSequence(m, np.concatenate([[0.0] * m, [0, 0.3, 0.3, 0.3, 0.7, 1], [1.0] * m]))
        yield KnotSequence.clamped(3, 1e8 + np.linspace(0.0, 1.0, 8))

    @pytest.mark.parametrize("npts", [1, 2, 5, 8])
    def test_bitwise_equal_to_the_scalar_rule(self, npts):
        # every stored window of both degrees, degenerate ones included, as
        # the cached table holds them: its live entries are the scalar rule
        for ks in self.sequences():
            for kind, deg in (("basis", ks.m), ("dual", ks.m - 2)):
                ks.kernel_rules(kind, [], npts)  # builds the table
                nodes, wts, live = ks._rules[deg, npts]
                assert nodes.shape == wts.shape == live.shape == (len(ks.knots) - deg - 1, (deg + 1) * npts)
                for s, (x, w, on) in enumerate(zip(nodes, wts, live)):
                    j = s + deg - ks.m - ks.pad  # the window starts at knot j - deg
                    want_nodes, want_wts = kernel_rule_oracle(ks, deg, j, npts)
                    assert np.array_equal(x[on], want_nodes), (ks, deg, j)
                    assert np.array_equal(w[on], want_wts), (ks, deg, j)
                    assert not w[~on].any()

    def test_public_rules_and_domain_integrals(self):
        for ks in self.sequences():
            m = ks.m
            nodes, wts, live = ks.kernel_rules("basis", ks.basis_indices, 4)
            integrals = ks.basis_integrals()
            for i in range(ks.nbasis):
                want = kernel_rule_oracle(ks, m, i, 4)
                assert np.array_equal(nodes[i][live[i]], want[0])
                assert np.array_equal(wts[i][live[i]], want[1])
                full = (ks.knot(i + 1) - ks.knot(i - m)) / (m + 1)
                if ks.cardinal and not (ks.knot(i - m) >= ks.a and ks.knot(i + 1) <= ks.b):
                    x, w = kernel_rule_oracle(ks, m, i, m // 2 + 1)
                    full *= float(w[(x > ks.a) & (x < ks.b)].sum())
                assert integrals[i] == full
            dual = [i for i in range(1, ks.nbasis - 1) if ks.knot(i) > ks.knot(i - m + 1)]
            nodes, wts, live = ks.kernel_rules("dual", dual, 3)
            for i, x, w, on in zip(dual, nodes, wts, live):
                want = kernel_rule_oracle(ks, m - 2, i - 1, 3)
                assert np.array_equal(x[on], want[0]) and np.array_equal(w[on], want[1])

    def test_empty_spans_get_no_nodes(self):
        ks = KnotSequence(3, [0, 0, 0, 0, 0.3, 0.3, 0.3, 0.7, 1, 1, 1, 1])
        nodes, wts, live = ks.kernel_rules("basis", [3], 4)  # support t_0..t_4 = 0, 0.3, 0.3, 0.3, 0.7
        assert nodes.shape == (1, 16) and live.sum() == 8 and not wts[~live].any()
        nodes, wts = nodes[live], wts[live]
        assert len(nodes) == 8 and np.all(np.diff(nodes) > 0)
        assert wts.sum() == pytest.approx(1.0, rel=1e-14)

    def test_indices_checked_as_by_moments(self):
        ks = KnotSequence(3, [0, 0, 0, 0, 0.3, 0.3, 0.3, 0.7, 1, 1, 1, 1])
        # dual index 3 has the degenerate window 0.3, 0.3, 0.3
        bad = (("dual", [0, 1]), ("dual", [1, 3, 4]), ("dual", [3]), ("basis", [-1]), ("basis", [0.5]))
        for kind, js in bad:
            with pytest.raises((ValueError, IndexError)) as want:
                ks.moments(kind, js, 1)
            with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
                ks.kernel_rules(kind, js, 4)
        with pytest.raises(ValueError, match="unknown kernel kind 'point'"):
            ks.kernel_rules("point", [1], 4)
        with pytest.raises(ValueError, match="dual kernels need degree >= 2"):
            KnotSequence.clamped(1, [0.0, 0.5, 1.0]).kernel_rules("dual", [1], 4)

    @pytest.mark.parametrize("npts", [0, -1, 2.5, np.float64(3.0), True, "4"])
    def test_npts_must_be_a_positive_integer(self, npts):
        ks = KnotSequence.clamped(2, np.linspace(0.0, 1.0, 5))
        with pytest.raises(ValueError, match=r"^npts must be an integer >= 1, got "):
            ks.kernel_rules("basis", [1], npts)
        assert ks._rules == {}


class TestGrevillePoints:
    @pytest.mark.parametrize("m", range(1, 12))
    def test_bitwise_equal_to_the_window_mean(self, m):
        rng = np.random.default_rng(96 + m)
        for ks in (
            random_clamped(m, 11, rng, ratio=1e6),
            KnotSequence.clamped(m, 1e8 + np.linspace(0.0, 1.0, 9)),
            KnotSequence.cardinal_uniform(m, 5, pad=2, start=-2.1, spacing=0.3),
        ):
            lo, hi = ks.greville_range()
            for j in range(lo, hi + 1):
                assert ks.greville(j) == greville_point(ks, j)

    def test_range_ends_validated(self):
        ks = KnotSequence.clamped(3, [0.0, 0.5, 1.0])
        lo, hi = ks.greville_range()
        assert ks.greville(lo) == 0.0 and ks.greville(hi) == 1.0
        for j in (lo - 1, hi + 1):
            with pytest.raises(IndexError, match="Greville index"):
                ks.greville(j)

    @pytest.mark.parametrize("m", range(1, 8))
    def test_gather_is_the_point_moment(self, m):
        for ks in TestBatchedMoments._sequences(m):
            lo, hi = ks.greville_range()
            js = np.arange(lo, hi + 1)
            for idx in (js, js[::-1].reshape(-1, 1) + np.array([0, 0]), js[:0]):
                got = ks.greville_points(idx)
                want = ks.moments("point", idx, 1)[..., 1]
                assert got.shape == want.shape
                # equal up to the sign of a zero: the moment sums map -0.0 to +0.0
                np.testing.assert_array_equal(got, want, strict=True)
            assert ks.greville_points(js).tolist() == [ks.greville(j) for j in js]

    @pytest.mark.parametrize(
        "ks",
        [KnotSequence.clamped(3, [0.0, 0.3, 0.5, 1.0]), KnotSequence.cardinal_uniform(2, 5, pad=1)],
        ids=["clamped", "cardinal"],
    )
    def test_one_rule_for_every_greville_index(self, ks):
        lo, hi = ks.greville_range()
        for j in (lo - 1, hi + 1):
            for call in (
                lambda: ks.greville(j),
                lambda: ks.greville_points([lo, j]),
                lambda: ks.lam(j),
                lambda: ks.moments("point", [j], 1),
                lambda: ks.moments("symmetric", [hi, j], 2),
            ):
                with pytest.raises(IndexError, match=rf"^Greville index {j} outside stored range \[{lo}, {hi}\]$"):
                    call()

    @pytest.mark.parametrize("j", [True, False, np.True_])
    def test_bool_index_refused_alike(self, j):
        ks = KnotSequence.clamped(3, [0.0, 0.3, 0.5, 1.0])
        for call in (
            lambda: ks.greville(j),
            lambda: ks.greville_points(j),
            lambda: ks.greville_points([j, False]),
            lambda: ks.moments("point", j, 1),
        ):
            with pytest.raises(ValueError, match="^indices must be integers, got bool values$"):
                call()
        with pytest.raises(TypeError):
            ks.greville(2.0)

    def test_gather_validated_as_greville(self):
        ks = KnotSequence.clamped(3, [0.0, 0.5, 1.0])
        lo, hi = ks.greville_range()
        for js in ([lo, lo - 1], [[hi + 1], [lo]], np.array([lo - 3, hi + 2])):
            j = np.min(js) if np.min(js) < lo else np.max(js)
            with pytest.raises(IndexError, match=rf"^Greville index {j} outside stored range \[{lo}, {hi}\]$"):
                ks.greville_points(js)
        with pytest.raises(ValueError, match="indices must be integers"):
            ks.greville_points([1.0])


class TestMomentsInput:
    """``moments`` is the gate of every scalar moment call."""

    ks = KnotSequence.clamped(3, np.linspace(0.0, 1.0, 6))

    @pytest.mark.parametrize("kind", ["bogus", "Dual", "", None])
    def test_unknown_kind(self, kind):
        with pytest.raises(ValueError, match="unknown moment kind"):
            self.ks.moments(kind, [1], 1)

    @pytest.mark.parametrize("kind", ["point", "dual", "basis"])
    def test_bad_order(self, kind):
        with pytest.raises(ValueError, match="moment order must be >= 0"):
            self.ks.moments(kind, [1], -1)
        with pytest.raises(ValueError, match="order r=-1"):
            self.ks.moments("symmetric", [1], -1)
        for order in (2.0, True, np.float64(1.0), "2"):
            for k in (kind, "symmetric"):
                with pytest.raises(ValueError, match=f"^moment order must be an integer, got {re.escape(repr(order))}$"):
                    self.ks.moments(k, [2], order)

    @pytest.mark.parametrize("js", [[1.7], [1.0, 2.0], np.array([2.5]), [True, False], ["1"]])
    def test_non_integral_indices(self, js):
        for kind in ("point", "symmetric", "dual", "basis"):
            with pytest.raises(ValueError, match="indices must be integers"):
                self.ks.moments(kind, js, 1)

    def test_scalar_methods_reject_non_integral_indices(self):
        for call in (
            lambda: self.ks.dual_moment(1.5, 1),
            lambda: self.ks.basis_moment(2.5, 1),
        ):
            with pytest.raises(ValueError, match="indices must be integers"):
                call()

    @pytest.mark.parametrize(
        "center, scale",
        [
            (0.0, 0.0),
            (0.0, -1.0),
            (0.0, np.nan),
            (0.0, np.inf),
            (np.nan, 1.0),
            (np.inf, 1.0),
            (-np.inf, 1.0),
            ([0.1, np.nan, 0.3], 1.0),
            (0.0, [1.0, 0.0, 1.0]),
        ],
    )
    def test_bad_center_or_scale(self, center, scale):
        for kind in ("point", "symmetric", "dual", "basis"):
            with pytest.raises(ValueError, match="center must be finite, and scale finite and > 0"):
                self.ks.moments(kind, [1, 2, 3], 2, center=center, scale=scale)

    @pytest.mark.parametrize("center, scale", [(0.0, 0.0), (0.0, -1.0), (np.nan, 1.0), (0.0, np.nan)])
    def test_scalar_methods_reject_bad_center_or_scale(self, center, scale):
        for call in (
            self.ks.dual_moment,
            self.ks.basis_moment,
        ):
            with pytest.raises(ValueError, match="center must be finite, and scale finite and > 0"):
                call(2, 2, center=center, scale=scale)

    def test_finite_center_and_positive_scale_accepted(self):
        got = self.ks.moments("basis", [1, 2, 3], 2, center=[0.1, 0.2, 0.3], scale=[0.5, 1.0, 2.0])
        for g, (j, c, h) in enumerate(((1, 0.1, 0.5), (2, 0.2, 1.0), (3, 0.3, 2.0))):
            assert got[g, 2] == self.ks.basis_moment(j, 2, center=c, scale=h)

    def test_integer_index_types_accepted(self):
        want = self.ks.moments("dual", [1, 2, 3], 2)
        for js in (range(1, 4), np.arange(1, 4, dtype=np.int32), np.array([1, 2, 3], dtype=np.uint8)):
            np.testing.assert_array_equal(self.ks.moments("dual", js, 2), want)
        assert self.ks.dual_moment(np.int64(2), np.int64(2)) == want[1, 2]
        assert self.ks.moments("basis", [], 2).shape == (0, 3)
