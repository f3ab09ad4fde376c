"""Tests for coefficient functionals and the operator container."""

import dataclasses

import numpy as np
import pytest

from splineqi import (
    DISCRETE,
    DUAL_SPLINE,
    CoefficientFunctional,
    KnotSequence,
    QuasiInterpolant,
    gs1,
    gs2,
    is_exact_on,
    nb_dqi_nonuniform,
    s2,
    schoenberg,
    uniform_nb_dqi,
    uniform_nb_iqi,
)
from splineqi.normest import lebesgue_function
from splineqi.partitions import random_admissible_clamped, random_clamped


def _apply(q, i, f, npts=8):
    """Functional i of q applied to f, entry by entry: f at the Greville
    points, and its integrals against the kernels from the live entries of
    their Gauss rules."""
    ks, lam = q.ks, q.functionals[i]
    kind = "dual" if q.kind == DUAL_SPLINE else "basis"
    total = 0.0
    for idx, w in lam.point_entries:
        total += w * float(f(ks.greville(idx)))
    for idx, w in lam.kernel_entries:
        nodes, wts, live = ks.kernel_rules(kind, [idx], npts)
        total += w * float(np.dot(wts[live], np.asarray(f(nodes[live]), dtype=float)))
    return total


def _apply_monomial(q, i, r, *, center=0.0, scale=1.0):
    """Functional i of q on ((x - center)/scale)**r, entry by entry from the
    Greville points and the one-index kernel moments."""
    ks, lam = q.ks, q.functionals[i]
    moment = ks.dual_moment if q.kind == DUAL_SPLINE else ks.basis_moment
    total = 0.0
    for idx, w in lam.point_entries:
        total += w * ((ks.greville(idx) - center) / scale) ** r
    for idx, w in lam.kernel_entries:
        total += w * moment(idx, r, center=center, scale=scale)
    return total


def _is_exact_on_loop(q, degree):
    """The per-functional loop that the whole-band check replaced."""
    ks = q.ks
    scale = ks.b - ks.a
    worst = 0.0
    for j in ks.basis_indices:
        center = ks.greville(j)
        for r in range(degree + 1):
            got = _apply_monomial(q, j, r, center=center, scale=scale)
            want = ks.moments("symmetric", [j], r, center=center, scale=scale)[0, r]
            worst = max(worst, abs(got - want))
    return worst <= 1e-10, worst


def _univariate_operators():
    """Every family: clamped (with rough and shifted partitions, and the
    clamped ends that mix point and kernel rows) and cardinal, both kernel
    flavours."""
    rng = np.random.default_rng(19)
    for m in (2, 3, 4, 5, 6):
        for ks in (
            random_clamped(m, 9, rng, ratio=1e6),
            random_clamped(m, 3, rng),
            KnotSequence.clamped(m, 1e4 + np.linspace(0.0, 1.0, 8)),
            KnotSequence.cardinal_uniform(m, 6, pad=2),
        ):
            for family in (schoenberg, s2, gs1, gs2):
                yield family(ks)
    for p in (2, 3):
        yield nb_dqi_nonuniform(random_admissible_clamped(12, rng, p), p)
    for order, ns in ((2, (1, 2)), (4, (1, 2, 3)), (6, (2, 3))):
        for n in ns:
            yield uniform_nb_dqi(order, n, nspans=8)
            yield uniform_nb_iqi(order, n, nspans=8)


@pytest.fixture
def quad_uniform():
    return KnotSequence.clamped(2, np.linspace(0.0, 1.0, 11))


class TestApply:
    def test_moment_functional_on_identity(self):
        rng = np.random.default_rng(4)
        ks = random_clamped(3, 9, rng)
        g1 = gs1(ks)
        for i in range(1, ks.nbasis - 1):
            got = _apply(g1, i, lambda x: np.asarray(x))
            assert got == pytest.approx(ks.greville(i), rel=1e-12)

    def test_linearity_on_random_polynomials(self):
        rng = np.random.default_rng(5)
        ks = random_clamped(2, 8, rng)
        for q in (schoenberg(ks), s2(ks), gs1(ks), gs2(ks)):
            c1, c2 = rng.standard_normal(3), rng.standard_normal(3)
            f = lambda x: np.polyval(c1, x)
            g = lambda x: np.polyval(c2, x)
            al, be = 0.7, -1.3
            combined = _apply(q, 3, lambda x: al * f(x) + be * g(x))
            split = al * _apply(q, 3, f) + be * _apply(q, 3, g)
            assert combined == pytest.approx(split, rel=1e-12, abs=1e-12)


class TestApplyMonomial:
    def test_unit_weight_sum_reproduces_constants(self):
        rng = np.random.default_rng(6)
        ks = random_clamped(3, 7, rng)
        for q in (schoenberg(ks), s2(ks), gs1(ks), gs2(ks)):
            for i in ks.basis_indices:
                assert _apply_monomial(q, i, 0) == pytest.approx(1.0, rel=1e-12)

    def test_gs2_reproduces_second_symmetric(self):
        rng = np.random.default_rng(7)
        ks = random_clamped(3, 8, rng)
        g2 = gs2(ks)
        for i in range(ks.nbasis):
            assert _apply_monomial(g2, i, 2) == pytest.approx(
                ks.moments("symmetric", [i], 2)[0, 2], rel=1e-10, abs=1e-12
            )

    def test_schoenberg_overshoot_is_lam(self):
        rng = np.random.default_rng(8)
        ks = random_clamped(2, 9, rng)
        s1 = schoenberg(ks)
        for i in range(ks.nbasis):
            over = _apply_monomial(s1, i, 2) - ks.moments("symmetric", [i], 2)[0, 2]
            assert over == pytest.approx(ks.lam(i), rel=1e-9, abs=1e-14)

    def test_agreement_with_apply(self):
        rng = np.random.default_rng(9)
        for m in (2, 3, 4):
            ks = random_clamped(m, 7, rng)
            for q in (schoenberg(ks), s2(ks), gs1(ks), gs2(ks)):
                for i in ks.basis_indices[:: max(1, ks.nbasis // 4)]:
                    for r in range(m + 1):
                        direct = _apply(q, i, lambda x: np.asarray(x, float) ** r)
                        assert _apply_monomial(q, i, r) == pytest.approx(
                            direct, rel=1e-10, abs=1e-12
                        )


class TestRowNorms:
    def test_equal_the_row_sums_of_the_dense_entry_tables(self):
        # one dense table per entry kind, columns by source index; each row is
        # summed left to right, the point table's sum then the kernel table's
        for q in _univariate_operators():
            want = np.zeros(q.ks.nbasis)
            for field in ("point_entries", "kernel_entries"):
                sources = sorted({idx for lam in q.functionals for idx, _ in getattr(lam, field)})
                col = {idx: c for c, idx in enumerate(sources)}
                W = np.zeros((q.ks.nbasis, len(sources)))
                for i, lam in enumerate(q.functionals):
                    for idx, w in getattr(lam, field):
                        W[i, col[idx]] += w
                want += [sum(row) for row in np.abs(W).tolist()]
            np.testing.assert_array_equal(q.row_norms, want, err_msg=q.family)
            assert not q.row_norms.flags.writeable


class TestEntries:
    def test_discrete_entries(self, quad_uniform):
        q = s2(quad_uniform)
        lam = q.functionals[4]
        assert q.kind == DISCRETE
        assert [idx - 4 for idx, _ in lam.point_entries] == [-1, 0, 1]
        np.testing.assert_allclose([w for _, w in lam.point_entries], [-0.125, 1.25, -0.125], rtol=1e-12)
        assert not lam.kernel_entries

    def test_kernel_entries_are_indices(self, quad_uniform):
        lam = gs1(quad_uniform).functionals[3]
        assert lam.kernel_entries == ((3, 1.0),)
        assert not lam.point_entries


class TestConstructionValidation:
    def test_operator_kind_must_be_known(self, quad_uniform):
        with pytest.raises(ValueError, match="^unknown functional kind 'moment'$"):
            dataclasses.replace(schoenberg(quad_uniform), kind="moment")

    def test_discrete_operator_carries_no_kernel_entries(self, quad_uniform):
        with pytest.raises(ValueError, match="^discrete functionals cannot carry kernel entries$"):
            self._replace_row(schoenberg(quad_uniform), 3, kernel_entries=((3, 0.0),))
        with pytest.raises(ValueError, match="^discrete functionals cannot carry kernel entries$"):
            dataclasses.replace(gs1(quad_uniform), kind=DISCRETE)

    @staticmethod
    def _replace_row(q, i, **entries):
        funs = list(q.functionals)
        funs[i] = dataclasses.replace(funs[i], **entries)
        return dataclasses.replace(q, functionals=tuple(funs))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_weight(self, quad_uniform, bad):
        q = s2(quad_uniform)
        with pytest.raises(ValueError, match="^non-finite weight$"):
            self._replace_row(q, 4, point_entries=((3, 1.0), (4, bad)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kernel_weight(self, quad_uniform, bad):
        q = gs2(quad_uniform)
        with pytest.raises(ValueError, match="^non-finite weight$"):
            self._replace_row(q, 5, kernel_entries=((4, 0.5), (5, bad), (6, 0.5)))

    @pytest.mark.parametrize("idx", [-2, 13, 99])
    def test_point_source_outside_the_greville_range(self, quad_uniform, idx):
        q = schoenberg(quad_uniform)
        lo, hi = quad_uniform.greville_range()
        assert not lo <= idx <= hi
        with pytest.raises(IndexError, match=rf"^Greville index {idx} outside stored range \[{lo}, {hi}\]$"):
            self._replace_row(q, 5, point_entries=((idx, 1.0),))

    @pytest.mark.parametrize(
        "idx, error, message",
        [
            (0, ValueError, r"^dual kernel index 0 outside interior range \[1, 10\]$"),
            (40, ValueError, r"^dual kernel index 40 outside interior range \[1, 10\]$"),
            (99, IndexError, r"^basis kernel window for index 99 not stored$"),
        ],
    )
    def test_kernel_source_not_stored(self, quad_uniform, idx, error, message):
        q = uniform_nb_iqi(4, 2, nspans=8) if error is IndexError else gs1(quad_uniform)
        with pytest.raises(error, match=message):
            self._replace_row(q, 3, kernel_entries=((idx, 1.0),))


class TestQuasiInterpolant:
    def test_requires_one_functional_per_index(self, quad_uniform):
        funs = tuple(
            CoefficientFunctional(point_entries=((i, 1.0),))
            for i in range(quad_uniform.nbasis - 1)
        )
        with pytest.raises(ValueError, match="one functional per basis index"):
            QuasiInterpolant(quad_uniform, funs, degree_exact=1, family="broken")

    def test_evaluate_reproduces_line(self, quad_uniform):
        q = schoenberg(quad_uniform)
        xs = np.linspace(0.0, 1.0, 23)
        np.testing.assert_allclose(q.evaluate(lambda x: 2 * x - 0.3, xs), 2 * xs - 0.3, atol=1e-13)

    def test_coefficients_and_evaluate_match_per_point_loop(self):
        # oracle: one functional and one basis row at a time
        rng = np.random.default_rng(16)
        f = lambda x: np.sin(3 * np.asarray(x)) + np.asarray(x) ** 2  # noqa: E731
        ops = [uniform_nb_iqi(4, 2, nspans=8), uniform_nb_dqi(4, 3, nspans=8)]
        for m in (2, 3, 5):
            ks = random_clamped(m, 9, rng)
            ops += [schoenberg(ks), s2(ks), gs1(ks), gs2(ks)]
        for q in ops:
            want = np.array([_apply(q, i, f) for i in q.ks.basis_indices])
            got = q.coefficients(f)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())
            a, b = q.ks.domain
            xs = np.concatenate([rng.uniform(a, b, 50), [a, b]])
            rows = [q.ks.basis_row(x) for x in xs]
            want = [float(np.dot(row, got[k : k + q.ks.m + 1])) for k, row in rows]
            scale = np.abs(got).max()
            np.testing.assert_allclose(q.evaluate(f, xs), want, rtol=0, atol=1e-14 * scale)

    def test_evaluate_shapes_and_domain(self, quad_uniform):
        q = s2(quad_uniform)
        f = lambda x: np.asarray(x) ** 2  # noqa: E731
        for x in (0.3, np.float64(0.3), np.array(0.3)):
            got = q.evaluate(f, x)
            assert isinstance(got, float) and got == pytest.approx(0.09, rel=1e-13)
        out = q.evaluate(f, [0.1, 0.5, 1.0])
        assert isinstance(out, np.ndarray) and out.shape == (3,)
        assert q.evaluate(f, np.array([])).shape == (0,)
        with pytest.raises(ValueError, match=r"^x=1\.5 outside domain \[0\.0, 1\.0\]$"):
            q.evaluate(f, 1.5)
        with pytest.raises(ValueError, match=r"^x=-0\.25 outside domain \[0\.0, 1\.0\]$"):
            q.evaluate(f, [0.5, -0.25, 2.0])
        for call in (lambda: q.evaluate(f, float("nan")), lambda: lebesgue_function(q, np.nan)):
            with pytest.raises(ValueError, match=r"^x=nan outside domain \[0\.0, 1\.0\]$"):
                call()

    def test_coefficients_accept_a_constant_function(self, quad_uniform):
        for q in (s2(quad_uniform), gs2(quad_uniform)):
            np.testing.assert_allclose(q.coefficients(lambda x: 2.0), 2.0, rtol=1e-13)

    @pytest.mark.parametrize(
        "make",
        [lambda: s2(KnotSequence.clamped(2, np.linspace(0.0, 1.0, 7))), lambda: uniform_nb_iqi(4, 1, nspans=6)],
        ids=["point band", "kernel band"],
    )
    @pytest.mark.parametrize(
        "ret", [lambda n: np.zeros(3), lambda n: np.zeros((1, 1)), lambda n: np.zeros((n, 2))], ids=["3", "1x1", "nx2"]
    )
    def test_f_must_return_a_scalar_or_one_value_per_node(self, make, ret):
        # numpy's broadcast errors reached the caller: "operands could not be
        # broadcast together with remapped shapes", "more dimensions than allowed"
        q, seen = make(), []
        def f(x):
            seen.append(x.size)
            return ret(x.size)
        for call in (lambda: q.coefficients(f), lambda: q.evaluate(f, 0.5)):
            seen.clear()
            with pytest.raises(ValueError) as exc:
                call()
            got, = seen
            want = f"f must return a scalar or one value per node, got shape {ret(got).shape} for {got} nodes"
            assert str(exc.value) == want

    def test_non_finite_datum_stays_in_its_rows(self, quad_uniform):
        # f is infinite at the Greville point 0, which only rows 0 and 1 use
        q = s2(quad_uniform)
        with np.errstate(divide="ignore"):
            coeffs = q.coefficients(lambda x: 1.0 / np.asarray(x))
        assert not np.isfinite(coeffs[:2]).any() and np.isfinite(coeffs[2:]).all()

    def test_weight_bands_hold_every_entry(self):
        ks = random_clamped(3, 9, np.random.default_rng(17))
        for q in (s2(ks), gs2(ks), uniform_nb_iqi(4, 3, nspans=8)):
            point, kernel = q.bands
            for band, field in ((point, "point_entries"), (kernel, "kernel_entries")):
                assert not band.weights.flags.writeable
                dense = {}
                for i, lam in enumerate(q.functionals):
                    for idx, w in getattr(lam, field):
                        dense[i, idx] = w
                for (i, c), w in np.ndenumerate(band.weights):
                    assert dense.pop((i, i + band.lo + c), 0.0) == w
                assert not dense
                refs = {idx for lam in q.functionals for idx, _ in getattr(lam, field)}
                assert sorted(refs) == band.sources.tolist()

    def test_empty_bands_are_float(self):
        # a band with no entries came from a bincount of nothing, as int64
        ks = random_clamped(3, 9, np.random.default_rng(17))
        for band in (uniform_nb_iqi(4, 2).bands[0], schoenberg(ks).bands[1], uniform_nb_dqi(4, 2).bands[1]):
            assert not band.sources.size
            assert band.weights.dtype == np.float64 and band.weights.shape == (band.weights.shape[0], 0)

    def test_is_discrete_flag(self, quad_uniform):
        assert schoenberg(quad_uniform).is_discrete
        assert not gs1(quad_uniform).is_discrete


class TestIsExactOn:
    def test_schoenberg_degree_one(self):
        rng = np.random.default_rng(12)
        ks = random_clamped(3, 9, rng)
        ok, _ = is_exact_on(schoenberg(ks), 1)
        assert ok

    def test_s2_degree_two_on_random_partitions(self):
        rng = np.random.default_rng(13)
        for m in (2, 3, 4, 5):
            ks = random_clamped(m, 8, rng)
            ok, worst = is_exact_on(s2(ks), 2)
            assert ok, worst

    def test_schoenberg_fails_degree_two_with_lam_residual(self):
        rng = np.random.default_rng(14)
        ks = random_clamped(2, 9, rng)
        s1 = schoenberg(ks)
        ok, worst = is_exact_on(s1, 2)
        assert not ok
        lam_max = max(ks.lam(j) for j in range(ks.nbasis))
        assert worst == pytest.approx(lam_max, rel=1e-9)

    def test_beyond_degree_rejected(self, quad_uniform):
        with pytest.raises(ValueError, match="beyond the spline degree"):
            is_exact_on(schoenberg(quad_uniform), 3)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_families_build_on_a_shifted_domain(self, m):
        ks = KnotSequence.clamped(m, 1e4 + np.linspace(0.0, 1.0, 11))
        for family in (schoenberg, s2, gs1, gs2):
            q = family(ks)
            ok, worst = is_exact_on(q, q.degree_exact)
            assert ok and worst <= 1e-11, (q.family, worst)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_rejects_a_perturbed_weight_on_rough_partitions(self, m):
        ks = random_clamped(m, 9, np.random.default_rng(15 + m))
        for q in (schoenberg(ks), s2(ks), gs1(ks), gs2(ks)):
            j = ks.nbasis // 2
            lam = q.functionals[j]
            entries = lam.kernel_entries or lam.point_entries
            bumped = ((entries[0][0], entries[0][1] + 1e-8),) + entries[1:]
            field = "kernel_entries" if lam.kernel_entries else "point_entries"
            funs = list(q.functionals)
            funs[j] = dataclasses.replace(lam, **{field: bumped})
            broken = dataclasses.replace(q, functionals=tuple(funs))
            ok, worst = is_exact_on(broken, q.degree_exact)
            assert not ok and worst >= 1e-8 * (1 - 1e-6), (q.family, worst)

    def test_matches_the_per_functional_loop(self):
        count = 0
        for q in _univariate_operators():
            for degree in range(q.ks.m + 1):
                got, want = is_exact_on(q, degree), _is_exact_on_loop(q, degree)
                assert got[0] == want[0], (q.family, degree, got, want)
                assert got[1] == pytest.approx(want[1], rel=1e-9, abs=1e-13), (q.family, degree)
                count += degree >= q.degree_exact and not got[0]
        assert count > 0  # some checks beyond the reproduction degree fail, in both

    @pytest.mark.parametrize("family", [uniform_nb_dqi, uniform_nb_iqi])
    def test_rejects_a_perturbed_weight_on_a_cardinal_sequence(self, family):
        q = family(4, 2, nspans=8)
        j = q.ks.nbasis // 2
        lam = q.functionals[j]
        field = "kernel_entries" if lam.kernel_entries else "point_entries"
        entries = getattr(lam, field)
        bumped = entries[:1] + ((entries[1][0], entries[1][1] + 1e-8),) + entries[2:]
        funs = list(q.functionals)
        funs[j] = dataclasses.replace(lam, **{field: bumped})
        broken = dataclasses.replace(q, functionals=tuple(funs))
        got, want = is_exact_on(broken, q.degree_exact), _is_exact_on_loop(broken, q.degree_exact)
        assert not got[0] and got[1] >= 1e-8 * (1 - 1e-6), got
        assert got[1] == pytest.approx(want[1], rel=1e-9)

    def test_mixed_point_and_kernel_rows(self):
        # on a clamped sequence G2's rows 1 and nbasis - 2 hold one point entry
        # (the domain end) and two kernel entries
        q = gs2(random_clamped(3, 6, np.random.default_rng(20)))
        assert q.functionals[1].point_entries and q.functionals[1].kernel_entries
        got, want = is_exact_on(q, 2), _is_exact_on_loop(q, 2)
        assert got[0] and want[0]
        assert got[1] == pytest.approx(want[1], rel=1e-9, abs=1e-13)
