"""Tests for norm bounds and empirical norm estimation."""

import itertools

import numpy as np
import pytest

from splineqi import (
    KnotSequence,
    empirical_norm_discrete,
    empirical_norm_integral,
    gs1,
    gs2,
    nb_dqi_nonuniform,
    nu_bound,
    s2,
    schoenberg,
    uniform_nb_dqi,
    uniform_nb_iqi,
)
from splineqi import normest
from splineqi.functionals import DUAL_SPLINE
from splineqi.normest import _sample_grid, integral_lebesgue_function, lebesgue_function
from splineqi.partitions import random_admissible_clamped, random_clamped

from oracles import basis_row_oracle


# ------------------------------------------------------------------ oracles
# The per-point dict accumulation and the scalar bisection path that the
# batched evaluation replaced, kept as the reference.


def _abs_kernel_integral_oracle(t, k0, deg, coef, sign_samples, tol=1e-13):
    jmin, jmax = min(coef), max(coef)
    gx, gw = np.polynomial.legendre.leggauss(deg // 2 + 1)

    def value(x, k):
        row = basis_row_oracle(t, k - k0, deg, x)
        return sum(coef.get(k + r, 0.0) * row[r] for r in range(deg + 1))

    total = 0.0
    for k in range(max(jmin - deg, k0), min(jmax + 1, k0 + len(t) - 1)):
        u0, u1 = t[k - k0], t[k + 1 - k0]
        if u1 <= u0:
            continue
        samples = np.concatenate(
            [[u0], u0 + (u1 - u0) * (np.arange(sign_samples) + 0.5) / sign_samples, [u1]]
        )
        vals = [value(x, k) for x in samples]
        cuts = []
        for s in range(len(samples) - 1):
            va, vb = vals[s], vals[s + 1]
            cuts.append(samples[s])  # each sample interval is integrated on its own
            if va == 0.0 or vb == 0.0 or (va < 0) == (vb < 0):
                continue
            lo, hi, flo = samples[s], samples[s + 1], va
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                fm = value(mid, k)
                if fm == 0.0 or hi - lo < tol * (u1 - u0):
                    break
                if (fm < 0) == (flo < 0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            cuts.append(0.5 * (lo + hi))
        cuts.append(u1)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            total += abs(sum(w * value(mid + half * g, k) for g, w in zip(gx, gw)) * half)
    return total


def lebesgue_oracle(q, x, mode="coefficient", sign_samples=8):
    ks = q.ks
    k, row = ks.basis_row(x)
    point, kernel = {}, {}
    for r in range(ks.m + 1):
        lam = q.functionals[k + r]
        for node, w in lam.point_entries:
            point[node] = point.get(node, 0.0) + w * row[r]
        for g, w in lam.kernel_entries:
            kernel[g] = kernel.get(g, 0.0) + w * row[r]
    total = sum(abs(v) for v in point.values())
    if not kernel or mode == "coefficient":
        return total + sum(abs(v) for v in kernel.values())
    deg, shift = (ks.m - 2, -1) if q.kind == DUAL_SPLINE else (ks.m, 0)
    t, k0 = ks.knots, -(ks.m + ks.pad)
    integral = lambda j: (t[j + 1 - k0] - t[j - deg - k0]) / (deg + 1)  # noqa: E731
    coef = {g + shift: w / integral(g + shift) for g, w in kernel.items()}
    return total + _abs_kernel_integral_oracle(t, k0, deg, coef, sign_samples)


def _sample_points_oracle(q, samples_per_span):
    """The grid that each norm computed for itself before the sequence kept it."""
    ks = q.ks
    a, b = ks.domain
    if ks.cardinal:
        width = b - a
        lo, hi = a + width / 4.0, b - width / 4.0
    else:
        lo, hi = a, b
    t = ks._t[ks.m + ks.pad : ks.m + ks.pad + ks.n + 1]
    u0, u1 = t[:-1], t[1:]
    keep = (u1 > u0) & (u1 > lo) & (u0 < hi)
    offs = np.arange(samples_per_span) / samples_per_span
    loc = (u0[keep, None] + (u1 - u0)[keep, None] * offs).ravel()
    return np.concatenate([loc[(loc >= lo) & (loc <= hi)], [hi]])


def empirical_norm_oracle(q, samples_per_span, polish, mode="coefficient", sign_samples=8):
    """``empirical_norm_integral`` with the grid and its basis rows made per call."""
    xs = _sample_points_oracle(q, samples_per_span)
    vals = normest._lebesgue_values(q, *q.ks.basis_rows(xs), mode, sign_samples)
    if polish:
        return normest._polish(xs, vals, lambda x: integral_lebesgue_function(q, x, mode, sign_samples))
    return float(vals.max())


def _merged_runs_oracle(q, k, weights, sign_samples):
    """``normest._abs_kernel_integrals`` as it was before each sample interval
    was integrated on its own: the cuts are the zero samples and one point in
    each sign-change bracket, and every run of sample intervals between two
    cuts is one piece, ``|F(end) - F(start)|``."""
    ks, band = q.ks, q.bands[1]
    deg, first = ks._kernel(band.kind, band.lo)
    npts, nsrc = weights.shape
    kmin, kmax = int(k.min()), int(k.max())
    i0, i1 = np.searchsorted(band.sources, band.lo + np.array([kmin, kmax + nsrc]))
    near = band.sources[i0:i1]
    table = np.zeros((kmax - kmin + nsrc, deg + 1, deg + 1))
    table[near - band.lo - kmin] = ks._kernel_pieces(band.kind, near)
    nspans = nsrc + deg
    poly = np.zeros((npts, nspans, deg + 1))
    terms = weights[:, :, None, None] * table[(k - kmin)[:, None] + np.arange(nsrc)]
    for s in range(nsrc):
        poly[:, s : s + deg + 1] += terms[:, s]
    t = ks._t
    pos = np.clip(k[:, None] + first + np.arange(nspans), 0, len(t) - 2)
    span_width = t[pos + 1] - t[pos]
    tau = np.concatenate([[0.0], (np.arange(sign_samples) + 0.5) / sign_samples, [1.0]])
    powers = (tau[:, None] ** np.arange(deg + 1)).T
    vals = poly @ powers
    sign = np.sign(vals) * (np.abs(vals) > (deg + 1) * 2.0**-53 * (np.abs(poly) @ powers))
    change = sign[..., :-1] * sign[..., 1:] < 0
    anti = np.zeros((deg + 2, npts, nspans))
    anti[1:] = np.moveaxis(poly, -1, 0) / np.arange(1, deg + 2)[:, None, None]
    p, s, i = np.nonzero(change)
    # a sample interval without a cut repeats the cut before it: a piece of width 0
    cuts = np.full((npts, nspans, sign_samples + 3), -np.inf)
    cuts[..., 0], cuts[..., -1] = 0.0, 1.0
    cuts[..., 2:-1] = np.where(sign[..., 1:-1] == 0.0, tau[1:-1], -np.inf)
    cuts[p, s, i + 1] = normest._cuts(poly[p, s].T, tau[i], tau[i + 1], vals[p, s, i])
    ends = normest._horner(anti[..., None], np.maximum.accumulate(cuts, axis=-1))
    return (np.abs(np.diff(ends, axis=-1)).sum(axis=-1) * span_width).sum(axis=1)


def _operators_with_kernels():
    rng = np.random.default_rng(60)
    for m in (2, 3, 4, 5):
        yield f"G2 m={m}", gs2(random_clamped(m, 7, rng))
    for n in (1, 2, 3):
        yield f"iQI n={n}", uniform_nb_iqi(4, n, nspans=8)


class TestNuBound:
    def test_schoenberg_is_one(self):
        ks = KnotSequence.clamped(2, [0.0, 0.5, 1.0])
        assert nu_bound(schoenberg(ks)) == 1.0

    def test_cubic_nb_n2(self):
        assert nu_bound(uniform_nb_dqi(4, 2)) == pytest.approx(7.0 / 6.0, abs=1e-14)

    def test_gs2_uniform_cardinal(self):
        q = gs2(KnotSequence.cardinal_uniform(2, 30, pad=2))
        assert nu_bound(q) == pytest.approx(5.0 / 3.0, rel=1e-12)

    def test_band_row_norms_equal_the_functional_norms(self):
        rng = np.random.default_rng(61)
        ops = []
        for m in (2, 3, 4, 5):
            for ks in (random_clamped(m, 9, rng, ratio=1e6), KnotSequence.cardinal_uniform(m, 6)):
                ops += [schoenberg(ks), s2(ks), gs1(ks), gs2(ks)]
        ops += [nb_dqi_nonuniform(random_admissible_clamped(12, rng, p), p) for p in (2, 3)]
        for order, ns in ((2, (1, 3)), (4, (1, 2, 3, 4, 5)), (6, (3, 4))):
            for n in ns:  # n >= 4: bands of width 9 and more
                ops += [uniform_nb_dqi(order, n, nspans=10), uniform_nb_iqi(order, n, nspans=10)]
        for q in ops:
            # each functional's entries summed in order, the point entries first
            nus = [
                sum(abs(w) for _, w in lam.point_entries) + sum(abs(w) for _, w in lam.kernel_entries)
                for lam in q.functionals
            ]
            assert nu_bound(q) == max(nus), q.family


class TestEmpiricalDiscrete:
    def test_schoenberg_exactly_one(self):
        rng = np.random.default_rng(20)
        q = schoenberg(random_clamped(3, 9, rng))
        assert empirical_norm_discrete(q) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n,want", [(1, 1.222), (2, 1.139), (3, 1.074)])
    def test_cubic_nb_table(self, n, want):
        got = empirical_norm_discrete(uniform_nb_dqi(4, n))
        assert got == pytest.approx(want, abs=0.01)

    def test_s2_clamped_uniform_value(self):
        q = s2(KnotSequence.clamped(2, np.linspace(0.0, 1.0, 51)))
        got = empirical_norm_discrete(q)
        assert got == pytest.approx(305.0 / 207.0, abs=0.005)

    def test_grid_density_guard(self):
        q = schoenberg(KnotSequence.clamped(2, [0.0, 0.5, 1.0]))
        with pytest.raises(ValueError, match="16 samples"):
            empirical_norm_discrete(q, samples_per_span=8)

    def test_rejects_integral_operators(self):
        q = gs1(KnotSequence.clamped(2, [0.0, 0.5, 1.0]))
        with pytest.raises(ValueError, match="integral functionals"):
            empirical_norm_discrete(q)

    def test_sandwich_below_nu(self):
        rng = np.random.default_rng(21)
        for m in (2, 3):
            for _ in range(10):
                q = s2(random_clamped(m, 8, rng))
                assert empirical_norm_discrete(q, 16) <= nu_bound(q) + 1e-9

    def test_monotone_under_refinement(self):
        rng = np.random.default_rng(22)
        q = s2(random_clamped(2, 9, rng))
        vals = [
            empirical_norm_discrete(q, samples_per_span=k, polish=False)
            for k in (16, 32, 64, 128)
        ]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_emulation_domain_stability(self):
        ref = empirical_norm_discrete(uniform_nb_dqi(4, 2, nspans=50))
        big = empirical_norm_discrete(uniform_nb_dqi(4, 2, nspans=100))
        assert abs(ref - big) < 1e-6


class TestEmpiricalIntegral:
    @pytest.mark.parametrize("n,want", [(1, 1.5278), (2, 1.2778), (3, 1.1481)])
    def test_cubic_nb_table(self, n, want):
        got = empirical_norm_integral(uniform_nb_iqi(4, n))
        assert got == pytest.approx(want, abs=0.01)

    def test_gs1_is_one_both_modes(self):
        rng = np.random.default_rng(23)
        q = gs1(random_clamped(3, 8, rng))
        assert empirical_norm_integral(q) == pytest.approx(1.0, abs=1e-8)
        assert empirical_norm_integral(q, mode="kernel") == pytest.approx(1.0, abs=1e-8)

    def test_kernel_mode_below_coefficient_mode(self):
        # overlapping kernels can only cancel, so the true sup-norm estimate
        # never exceeds the coefficient-level one
        for n in (1, 2):
            q = uniform_nb_iqi(4, n, nspans=30)
            co = empirical_norm_integral(q, samples_per_span=16)
            ke = empirical_norm_integral(q, samples_per_span=16, mode="kernel")
            assert ke <= co + 1e-9

    def test_sandwich_below_nu(self):
        for n in (1, 2):
            q = uniform_nb_iqi(4, n, nspans=30)
            assert empirical_norm_integral(q, 16) <= nu_bound(q) + 1e-9

    def test_gs2_clamped_mixed_entries(self):
        rng = np.random.default_rng(24)
        q = gs2(random_clamped(2, 8, rng))
        got = empirical_norm_integral(q, samples_per_span=16)
        assert got <= nu_bound(q) + 1e-9
        assert got >= 1.0 - 1e-9  # reproduces constants

    def test_monotone_under_refinement(self):
        q = uniform_nb_iqi(4, 1, nspans=24)
        vals = [
            empirical_norm_integral(q, samples_per_span=k, polish=False)
            for k in (16, 32, 64)
        ]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


class TestLebesgueFunctions:
    def test_discrete_pointwise_value(self):
        # hand value for the three-term quadratic family at a knot
        ks = KnotSequence.cardinal_uniform(2, 30, pad=2)
        q = s2(ks)
        assert lebesgue_function(q, 15.0) == pytest.approx(1.25, rel=1e-12)

    def test_integral_pointwise_modes_match_without_overlap_cancellation(self):
        ks = KnotSequence.clamped(2, np.linspace(0, 1, 9))
        q = gs1(ks)  # nonnegative weights: both modes agree
        x = 0.43
        assert integral_lebesgue_function(q, x, "coefficient") == pytest.approx(
            integral_lebesgue_function(q, x, "kernel"), rel=1e-12
        )

    def test_lebesgue_function_refuses_many_points(self):
        # the value at 0.1 alone was returned for both points
        q = s2(KnotSequence.clamped(2, np.linspace(0, 1, 9)))
        with pytest.raises(ValueError, match=r"^x must be a scalar, got shape \(2,\)$"):
            lebesgue_function(q, np.array([0.1, 0.9]))

    def test_integral_lebesgue_function_refuses_many_points(self):
        q = gs1(KnotSequence.clamped(2, np.linspace(0, 1, 9)))
        with pytest.raises(ValueError, match=r"^x must be a scalar, got shape \(2,\)$"):
            integral_lebesgue_function(q, [0.1, 0.9])


def _has_sign_change_near(c, x, lo, hi, tol=2.0**-27):
    """Whether the polynomial ``c`` (power form, as ``_horner`` evaluates it)
    is 0 or changes sign in ``[x - tol/2, x + tol/2]`` inside ``[lo, hi]``."""
    f = normest._horner(c, np.clip(x + tol / 2 * np.linspace(-1.0, 1.0, 257), lo, hi))
    return bool((f == 0.0).any() or (f.min() < 0.0 < f.max()))


def _brackets(c, sign_samples):
    """The sign-change brackets of the polynomials ``c[:, i]`` between the sign
    samples of ``_abs_kernel_integrals``: ``(i, lo, hi, f(lo))``."""
    tau = np.concatenate([[0.0], (np.arange(sign_samples) + 0.5) / sign_samples, [1.0]])
    vals = normest._horner(c[:, :, None], tau)
    i, j = np.nonzero(vals[:, :-1] * vals[:, 1:] < 0)
    return i, tau[j], tau[j + 1], vals[i, j]


class TestCuts:
    """``_cuts`` against the bisection that it replaced, which stays as its fallback."""

    @pytest.fixture
    def fallback(self, monkeypatch):
        """The number of brackets of each call into the bisection."""
        calls = []
        bisect = normest._bisect
        monkeypatch.setattr(normest, "_bisect", lambda c, lo, *a: calls.append(len(lo)) or bisect(c, lo, *a))
        return calls

    def test_every_cut_lies_near_a_sign_change(self, fallback):
        rng = np.random.default_rng(64)
        cuts = 0
        for deg in range(6):
            # 40 polynomials with roots at least 0.02 apart, about half of them in [0, 1]
            roots = np.sort(rng.uniform(-0.5, 1.5, (40, deg)), axis=1)
            roots[:, 1:] = roots[:, :1] + np.cumsum(np.maximum(np.diff(roots, axis=1), 0.02), axis=1)
            scale = 10.0 ** rng.uniform(-3, 3, 40)
            c = np.stack([a * np.polynomial.polynomial.polyfromroots(r) for a, r in zip(scale, roots)], axis=1)
            for sign_samples in (1, 3, 8):
                i, lo, hi, flo = _brackets(c, sign_samples)
                x = normest._cuts(c[:, i], lo, hi, flo)
                assert np.all((lo <= x) & (x <= hi))
                for g in range(len(i)):
                    assert _has_sign_change_near(c[:, i[g]], x[g], lo[g], hi[g]), (deg, sign_samples, g)
                    # the roots are simple and well apart, so the sign change is a root's
                    assert np.abs(roots[i[g]] - x[g]).min() <= 2.0**-28 * (1 + 1e-6)
                cuts += len(i)
        # Newton places most cuts even on these roots, some 0.02 apart in brackets up to 1/2 wide
        assert cuts > 500 and sum(fallback) < cuts / 10

    def test_triple_root_falls_back_to_bisection(self, fallback):
        # Newton moves only by a third of the distance per step towards a triple
        # root; the power form has sign changes from rounding within about 1e-5
        # of it, one of which the bisection finds
        for root, lo, hi in ((0.3, 3 / 16, 5 / 16), (1.0, 15 / 16, 1.0)):
            c = np.polynomial.polynomial.polyfromroots([root] * 3)[:, None]
            x = normest._cuts(c, np.array([lo]), np.array([hi]), normest._horner(c, np.array([lo])))
            assert _has_sign_change_near(c[:, 0], x[0], lo, hi)
            assert abs(x[0] - root) < 1e-5
        assert fallback == [1, 1]

    def test_two_roots_in_one_bracket(self):
        # a simple root at 0.33 and a double root at 0.36 in [5/16, 7/16]: the
        # sign changes at the simple root only
        c = np.polynomial.polynomial.polyfromroots([0.33, 0.36, 0.36])[:, None]
        lo, hi = np.array([5 / 16]), np.array([7 / 16])
        x = normest._cuts(c, lo, hi, normest._horner(c, lo))
        assert _has_sign_change_near(c[:, 0], x[0], lo[0], hi[0])
        assert abs(x[0] - 0.33) <= 2.0**-28

    def test_newton_iterate_on_an_exact_zero(self):
        # tau**2 - 1/4 vanishes at the bracket midpoint, the first iterate
        c = np.array([[-0.25], [0.0], [1.0]])
        x = normest._cuts(c, np.array([7 / 16]), np.array([9 / 16]), np.array([-15 / 256]))
        assert x[0] == 0.5

    def test_degree_one_closed_form(self):
        c = np.array([[-1.0, 2.0], [3.0, -5.0]])  # roots 1/3 and 2/5
        x = normest._cuts(c, np.array([5 / 16, 3 / 8]), np.array([3 / 8, 7 / 16]), np.array([-1 / 16, 1 / 8]))
        np.testing.assert_allclose(x, [1 / 3, 2 / 5], rtol=1e-15)

    @pytest.mark.parametrize("deg", [0, 1, 3])
    def test_empty_bracket_set(self, deg):
        empty = np.zeros(0)
        assert normest._cuts(np.zeros((deg + 1, 0)), empty, empty, empty).shape == (0,)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_roundoff_sign_changes_reach_the_fallback(self, fallback, n):
        # the c (tau - 1)**3 pieces of the cubic iQI kernels read as roundoff
        # at tau = 1; taken as zeros, they make no bracket for Newton to miss
        q = uniform_nb_iqi(4, n, nspans=4)
        empirical_norm_integral(q, 16, polish=False, mode="kernel")
        assert fallback == []

    @pytest.mark.parametrize("sign_samples", [1, 2, 3, 8, 64])
    def test_a_zero_sample_between_opposite_signs(self, sign_samples):
        # the difference of two neighbouring hat kernels vanishes at the knot
        # between them, which the samples reach at tau = 1/2 when sign_samples is odd
        q = gs2(KnotSequence.clamped(3, np.linspace(0, 1, 9)))
        _, k, rows = _sample_grid(q.ks, 16)
        nsrc = q.bands[1].at(k[:1], rows[:1]).shape[1]
        for s in range(1, nsrc - 1):
            w = np.zeros((1, nsrc))
            w[0, s], w[0, s + 1] = 1.0, -1.0
            got = normest._abs_kernel_integrals(q, k[:1] + 2, w, sign_samples)
            assert got[0] == pytest.approx(1.5, rel=1e-14), s


class TestBisection:
    def test_cuts_stop_at_the_tolerance(self, monkeypatch):
        # the sign-sample brackets of width 1/16 (ends) and 1/8 around simple
        # roots: at most 24 halvings to width 2**-27 and one evaluation to stop
        calls = []
        horner = normest._horner
        monkeypatch.setattr(normest, "_horner", lambda c, x: calls.append(len(x)) or horner(c, x))
        roots = np.array([0.01, 1 / 3, 0.5, 0.61, 0.999])
        lo = np.array([0.0, 5 / 16, 7 / 16, 9 / 16, 15 / 16])
        c = np.stack([-roots * 2.0, 2.0 - roots, np.ones(5)])  # (x - root)(x + 2), coefficients first
        flo = horner(c, lo)
        cut = normest._bisect(c, lo, lo + np.array([1, 2, 2, 2, 1]) / 16, flo)
        assert len(calls) <= 25
        assert np.all(np.abs(cut - roots) <= 2.0**-28)


class TestSampleGrid:
    """Each sequence keeps the norm grid of the last density asked for, and
    every norm at that density reads the same points and rows."""

    @staticmethod
    def _norms(q):
        """Every empirical norm of q, as ``float.hex``, polished and unpolished."""
        modes = ("coefficient",) if q.is_discrete else ("coefficient", "kernel")
        out = {}
        for mode, spp, polish in itertools.product(modes, (16, 64), (False, True)):
            if q.is_discrete:
                got = empirical_norm_discrete(q, spp, polish=polish)
            else:
                got = empirical_norm_integral(q, spp, polish=polish, mode=mode)
            out[q.family, mode, spp, polish] = (got.hex(), empirical_norm_oracle(q, spp, polish, mode).hex())
        return out

    def test_norms_bitwise_equal_to_the_per_call_grid(self):
        ks = random_clamped(3, 12, np.random.default_rng(62), ratio=1e3)
        ops = [schoenberg(ks), s2(ks), gs1(ks), gs2(ks)] + [uniform_nb_iqi(4, n, nspans=8) for n in (1, 2, 3)]
        for _ in range(2):  # each operator's norms switch the kept grid between the densities
            for q in ops:
                for key, (got, want) in self._norms(q).items():
                    assert got == want, key
        assert ks._grid[0] == 64

    def test_one_grid_evaluation_per_density(self, monkeypatch):
        ks = random_clamped(4, 10, np.random.default_rng(63), ratio=1e3)
        ops = [schoenberg(ks), s2(ks), gs1(ks), gs2(ks)]
        batches = []
        rows = KnotSequence.basis_rows
        monkeypatch.setattr(KnotSequence, "basis_rows", lambda ks, xs: batches.append(len(xs)) or rows(ks, xs))
        for spp in (32, 32, 48):
            for q in ops:
                empirical_norm_integral(q, spp, polish=False)
        assert batches == [10 * 32 + 1, 10 * 48 + 1]
        for q in ops:  # the polish evaluates its one point, not the grid again
            empirical_norm_integral(q, 48)
        assert batches[2:] == [1] * 4

    def test_a_refinement_sweep_keeps_one_grid(self):
        q = s2(KnotSequence.clamped(3, np.linspace(0.0, 1.0, 41)))
        for spp in (16, 32, 64, 128, 256):
            empirical_norm_discrete(q, spp, polish=False)
        spp, grid = q.ks._grid  # only the last density's grid is held
        assert spp == 256 and len(grid[0]) == 40 * 256 + 1
        again = _sample_grid(q.ks, 256)
        assert all(a is b for a, b in zip(again, grid))  # the same arrays, not a recomputation
        assert _sample_grid(q.ks, 16)[0].shape == (40 * 16 + 1,) and q.ks._grid[0] == 16

    def test_cached_arrays_reject_writes(self):
        q = s2(KnotSequence.clamped(2, np.linspace(0.0, 1.0, 5)))
        empirical_norm_discrete(q, 16)
        xs, k, rows = _sample_grid(q.ks, 16)
        for arr in (xs, k, rows):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        assert empirical_norm_discrete(q, 16) == empirical_norm_oracle(q, 16, True)

    @pytest.mark.parametrize(
        "family, options, message",
        [
            (s2, {"samples_per_span": 8}, "16 samples"),
            (s2, {"samples_per_span": 16.0}, "integer"),
            (s2, {"samples_per_span": True}, "integer"),
            (gs2, {"mode": "exact"}, "mode must be"),
            (gs2, {"sign_samples": -1, "mode": "kernel"}, "sign_samples"),
        ],
        ids=["8-16 samples", "16.0-integer", "True-integer", "mode-exact", "sign_samples--1"],
    )
    def test_bad_density_never_reaches_the_cache(self, family, options, message):
        q = family(KnotSequence.clamped(2, np.linspace(0.0, 1.0, 5)))
        norm = empirical_norm_discrete if q.is_discrete else empirical_norm_integral
        with pytest.raises(ValueError, match=message):
            norm(q, **{"samples_per_span": 16, **options})
        assert q.ks._grid == (0, None)


class TestBatchedAgainstOracle:
    def test_discrete_values(self):
        rng = np.random.default_rng(61)
        ops = [uniform_nb_dqi(4, n, nspans=12) for n in (1, 2, 3)]
        for m in (2, 3, 4, 5):
            ks = random_clamped(m, 9, rng)
            ops += [schoenberg(ks), s2(ks)]
        for q in ops:
            xs = _sample_grid(q.ks, 16)[0]
            got = [lebesgue_function(q, x) for x in xs]
            want = [lebesgue_oracle(q, x) for x in xs]
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
            got = empirical_norm_discrete(q, 16, polish=False)
            assert got == pytest.approx(max(want), rel=1e-13)

    def test_coefficient_mode_values(self):
        for label, q in _operators_with_kernels():
            xs = _sample_grid(q.ks, 16)[0]
            want = [lebesgue_oracle(q, x) for x in xs]
            got = [integral_lebesgue_function(q, x) for x in xs]
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0, err_msg=label)
            got = empirical_norm_integral(q, 16, polish=False)
            assert got == pytest.approx(max(want), rel=1e-13)

    def test_kernel_mode_values(self):
        for label, q in _operators_with_kernels():
            xs = _sample_grid(q.ks, 16)[0][::3]
            for sign_samples in (8, 3):
                want = [lebesgue_oracle(q, x, "kernel", sign_samples) for x in xs]
                got = [integral_lebesgue_function(q, x, "kernel", sign_samples) for x in xs]
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0, err_msg=label)

    def test_never_below_the_merged_runs(self):
        # |F(b) - F(a)| <= sum of |F(end) - F(start)| over the sample intervals from a to b
        for label, q in _operators_with_kernels():
            _, k, rows = _sample_grid(q.ks, 16)
            weights = q.bands[1].at(k, rows)
            for sign_samples in (8, 3):
                got = normest._abs_kernel_integrals(q, k, weights, sign_samples)
                merged = _merged_runs_oracle(q, k, weights, sign_samples)
                assert np.all(got >= merged - 8 * np.spacing(merged)), (label, sign_samples)
                if (label, sign_samples) == ("G2 m=5", 3):  # a root pair between two samples
                    assert got[48] - merged[48] == pytest.approx(2.55e-3, rel=0.01)

    def test_a_root_pair_between_two_samples(self):
        # gs2 of the 25th draw of random_clamped(m, 10, default_rng(2025), ratio=1e2),
        # six draws for each m = 2, ..., 6, at its 50th grid point: with three sign
        # samples the merged runs read 1.0636244, eight or more samples 1.0659959
        rng = np.random.default_rng(2025)
        for m in range(2, 6):
            for _ in range(6):
                random_clamped(m, 10, rng, ratio=1e2)
        q = gs2(random_clamped(6, 10, rng, ratio=1e2))
        x = _sample_grid(q.ks, 16)[0][49]
        assert x == 0.05803240512147149
        got = integral_lebesgue_function(q, x, "kernel", 3)
        fine = integral_lebesgue_function(q, x, "kernel", 512)
        assert got > 1.0637 and got == pytest.approx(fine, rel=2e-4)

    def test_one_point_reads_only_the_kernels_it_reaches(self, monkeypatch):
        q = gs2(KnotSequence.clamped(3, np.linspace(0, 1, 801)))
        asked = []
        pieces = KnotSequence._kernel_pieces
        monkeypatch.setattr(
            KnotSequence, "_kernel_pieces", lambda ks, kind, js: asked.append(len(js)) or pieces(ks, kind, js)
        )
        # the sources were checked when the operator was built, not again here
        monkeypatch.setattr(KnotSequence, "_indices", lambda *a: pytest.fail("index re-checked"))
        integral_lebesgue_function(q, 0.37, "kernel")
        # the point's weights reach nsrc consecutive sources, not the whole band
        nsrc = q.bands[1].at(*q.ks.basis_rows([0.37])).shape[1]
        assert asked == [nsrc] and nsrc < 10

    @pytest.mark.parametrize("order,n", [(6, 2), (6, 3), (8, 3)])
    def test_kernel_mode_on_a_short_cardinal_sequence(self, order, n):
        # the kernels next to the padded ends have their windows stored, but
        # not the knots beyond them
        short = empirical_norm_integral(uniform_nb_iqi(order, n, nspans=6), 16, mode="kernel")
        long = empirical_norm_integral(uniform_nb_iqi(order, n, nspans=30), 16, mode="kernel")
        assert short == pytest.approx(long, rel=1e-12)

    def test_mode_checked(self):
        q = gs1(KnotSequence.clamped(2, [0.0, 0.5, 1.0]))
        with pytest.raises(ValueError, match="mode must be"):
            empirical_norm_integral(q, mode="exact")
