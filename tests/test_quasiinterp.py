"""Tests for the concrete operator families."""

import json
from pathlib import Path

import numpy as np
import pytest

from splineqi import (
    KnotSequence,
    NearBestProblem,
    PartitionConditionError,
    empirical_norm_discrete,
    empirical_norm_integral,
    gs1,
    gs2,
    is_exact_on,
    nb_dqi_nonuniform,
    nu_bound,
    s2,
    schoenberg,
    solve_symmetric_uniform,
    uniform_nb_dqi,
    uniform_nb_iqi,
)
from splineqi import quasiinterp
from splineqi.normest import integral_lebesgue_function
from splineqi.quasiinterp import (
    _stencil_bounds,
    partition_condition_violations,
)
from splineqi.partitions import (
    geometric_breakpoints,
    random_admissible_clamped,
    random_clamped,
)

from oracles import exact_gs2_weights, greville_window


# ------------------------------------------------------------------ oracles
# The per-index loops that the whole-sequence constructors replaced.


def _s2_entries_loop(ks, i):
    lo, hi = _stencil_bounds(ks)
    l = ks.lam(i)
    if l <= 0.0:
        return ((i, 1.0),)
    if i - 1 >= lo and i + 1 <= hi:
        idxs = (i - 1, i, i + 1)
    elif i - 1 < lo:
        idxs = (i, i + 1, i + 2)
    else:
        idxs = (i - 2, i - 1, i)
    x0, x1, x2 = (ks.greville(j) for j in idxs)
    dd = np.array(
        [
            1.0 / ((x0 - x1) * (x0 - x2)),
            1.0 / ((x1 - x0) * (x1 - x2)),
            1.0 / ((x2 - x0) * (x2 - x1)),
        ]
    )
    acc = {i: 1.0}
    for j, wj in zip(idxs, -l * dd):
        acc[j] = acc.get(j, 0.0) + wj
    return tuple(sorted(acc.items()))


def _qp2_entries_loop(ks, i, p):
    lo, hi = _stencil_bounds(ks)
    l = ks.lam(i)
    if l <= 0.0:
        return ((i, 1.0),)
    jm, jp = max(i - p, lo), min(i + p, hi)
    A = ks.greville(i) - ks.greville(jm)
    B = ks.greville(jp) - ks.greville(i)
    return ((jm, -l / (A * (A + B))), (i, 1.0 + l / (A * B)), (jp, -l / (B * (A + B))))


def _partition_violations_loop(ks, p):
    glo, ghi = _stencil_bounds(ks)
    bad = []
    for i in ks.basis_indices:
        if i - p < glo or i + p > ghi or i - 1 < glo or i + 1 > ghi:
            continue
        mid = ks.greville(i - p) + ks.greville(i + p)
        width = max(abs(mid), ks.greville(i + p) - ks.greville(i - p))
        if (
            ks.greville(i - 1) + ks.greville(i) > mid + 1e-12 * width
            or mid > ks.greville(i) + ks.greville(i + 1) + 1e-12 * width
        ):
            bad.append(i)
    return bad


def _gs2_weights_loop(ks, i):
    """One index's 3x3 reproduction system, assembled and solved alone, in
    the variable centred at theta_i and scaled by (theta_{i+1} - theta_{i-1})/2;
    a member at a clamped end samples f there."""
    ends = () if ks.cardinal else (0, ks.nbasis - 1)
    center, scale = ks.greville(i), (ks.greville(i + 1) - ks.greville(i - 1)) / 2.0

    def member(idx, r):
        if idx in ends:
            return ((ks.greville(idx) - center) / scale) ** r
        return ks.dual_moment(idx, r, center=center, scale=scale)

    M = np.array([[member(idx, r) for idx in (i - 1, i, i + 1)] for r in range(3)])
    rhs = ks.moments("symmetric", [i], 2, center=center, scale=scale)[0]
    return np.linalg.solve(M, rhs)


def _stencil(q, i):
    """Offsets from i and weights of the entries of functional i of q, the
    point entries first."""
    entries = q.functionals[i].point_entries + q.functionals[i].kernel_entries
    return [idx - i for idx, _ in entries], [w for _, w in entries]


def _lam_oracle(ks, i):
    """lam_i from the pair formula of the centred Greville window, the scalar
    path that the elementary symmetric recurrence of ``moments`` replaced."""
    w = greville_window(ks, i)
    w = w - float(w.mean())
    s1 = float(w.sum())
    return -(s1 * s1 - float(w @ w)) / (ks.m * (ks.m - 1))


def _ulps(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.abs(got - want) / np.spacing(np.maximum(np.abs(got), np.abs(want)))


# ------------------------------------------------------------ golden weights
# Band weights and the coefficients of f(x) = 1/(1 + x^2) of every operator
# below, as float hex, recorded from the implementation whose Greville
# points, symmetric functions, kernel moments and kernel rules were scalar
# code (a mean per window, the pair formula and np.poly, a node at a time).

GOLDEN_WEIGHTS = Path(__file__).parent / "data" / "weights_golden.json"


def golden_operators():
    for m in (2, 3, 4, 5):
        for name, ks in (
            (f"rough-m{m}", random_clamped(m, 7, np.random.default_rng(500 + m), ratio=1e4)),
            (f"offset-m{m}", KnotSequence.clamped(m, 1e4 + np.linspace(0.0, 1.0, 8))),
            (f"cardinal-m{m}", KnotSequence.cardinal_uniform(m, 5, pad=2)),
        ):
            for family, make in (("S1", schoenberg), ("S2", s2), ("G1", gs1), ("G2", gs2)):
                yield f"{name}/{family}", make(ks)
    for p in (2, 3):
        ks = random_admissible_clamped(9, np.random.default_rng(520 + p), p)
        yield f"admissible-p{p}/Q_p2", nb_dqi_nonuniform(ks, p)
    cases = ((2, 1, 1), (4, 1, None), (4, 2, None), (4, 3, 1), (6, 2, None), (6, 3, 2), (6, 3, 4))
    for order, n, r in cases:
        yield f"uniform-dqi/{order}/{n}/{r}", uniform_nb_dqi(order, n, r, nspans=6)
        yield f"uniform-iqi/{order}/{n}/{r}", uniform_nb_iqi(order, n, r, nspans=6)


def golden_record(q):
    point, kernel = q.bands
    coefficients = q.coefficients(lambda x: 1.0 / (1.0 + x * x))
    return {
        key: " ".join(v.hex() for v in arr.ravel().tolist())
        for key, arr in (("point", point.weights), ("kernel", kernel.weights), ("coefficients", coefficients))
    }


def _sequences(seed):
    rng = np.random.default_rng(seed)
    for m in (2, 3, 4, 5, 6):
        yield random_clamped(m, 9, rng, ratio=1e6)
        yield random_clamped(m, 1, rng)
        yield KnotSequence.clamped(m, 1e4 + np.linspace(0.0, 1.0, 8))
        yield KnotSequence.cardinal_uniform(m, 6, pad=2)


class TestSchoenberg:
    def test_exact_degree_one_everywhere(self):
        rng = np.random.default_rng(100)
        for m in (2, 3, 5):
            ok, _ = is_exact_on(schoenberg(random_clamped(m, 9, rng)), 1)
            assert ok

    def test_unit_norm_bound(self):
        ks = KnotSequence.clamped(2, [0.0, 0.4, 1.0])
        assert nu_bound(schoenberg(ks)) == 1.0

    def test_positive_weights(self):
        ks = KnotSequence.clamped(4, np.linspace(0, 1, 8))
        for lam in schoenberg(ks).functionals:
            assert all(w > 0 for _, w in lam.point_entries)


class TestS2:
    def test_failed_reproduction_check_names_family_and_residual(self, monkeypatch):
        monkeypatch.setattr(quasiinterp, "is_exact_on", lambda qi, degree: (False, 1.5e-3))
        msg = r"^S2 failed its reproduction check at degree 2 \(worst residual 1\.500e-03\)$"
        with pytest.raises(RuntimeError, match=msg):
            s2(KnotSequence.clamped(2, np.linspace(0.0, 1.0, 9)))

    def test_uniform_interior_weights(self):
        ks = KnotSequence.clamped(2, np.linspace(0.0, 1.0, 21))
        q = s2(ks)
        _, weights = _stencil(q, 10)
        np.testing.assert_allclose(weights, [-0.125, 1.25, -0.125], rtol=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_exact_degree_two(self, m):
        rng = np.random.default_rng(200 + m)
        for _ in range(5):
            ok, worst = is_exact_on(s2(random_clamped(m, 8, rng)), 2)
            assert ok, worst

    def test_norm_bound_formula(self):
        # per-index l1 norm is 1 + 2 lam / (dtheta_- dtheta_+)
        rng = np.random.default_rng(205)
        ks = random_clamped(2, 10, rng)
        q = s2(ks)
        for i in range(1, ks.nbasis - 1):
            dm = ks.greville(i) - ks.greville(i - 1)
            dp = ks.greville(i + 1) - ks.greville(i)
            want = 1.0 + 2.0 * ks.lam(i) / (dm * dp)
            assert q.row_norms[i] == pytest.approx(want, rel=1e-12)

    def test_clamped_ends_are_point_samples(self):
        ks = KnotSequence.clamped(3, np.linspace(0, 1, 7))
        q = s2(ks)
        for i in (0, ks.nbasis - 1):
            offsets, weights = _stencil(q, i)
            assert offsets == [0] and weights == [1.0]

    def test_degree_one_rejected(self):
        ks = KnotSequence(1, [0.0, 0.0, 0.5, 1.0, 1.0])
        with pytest.raises(ValueError, match="degree >= 2"):
            s2(ks)

    @pytest.mark.parametrize(
        "ks",
        [
            KnotSequence.clamped(2, [0.0, 1.0]),
            KnotSequence.clamped(5, [0.0, 1e-6, 0.5, 1.0]),
            KnotSequence.cardinal_uniform(2, 3, pad=0),
            KnotSequence.cardinal_uniform(4, 2, pad=0, start=-1.5, spacing=0.25),
            # outer knots of multiplicity m + 1 around the domain of a cardinal sequence
            KnotSequence(2, [0.0, 0.0, 0.0, 1.0, 2.0, 2.0, 2.0], cardinal=True),
        ],
    )
    def test_every_corrected_index_has_both_neighbours(self, ks):
        # lam_i > 0 leaves theta_{i-1} < theta_i < theta_{i+1} inside the stored range
        q = s2(ks)
        for i in ks.basis_indices:
            offsets, _ = _stencil(q, i)
            assert offsets == ([-1, 0, 1] if ks.lam(i) > 0.0 else [0])

    def test_repeated_interior_knot_rejected(self):
        ks = KnotSequence(2, [0.0, 0.0, 0.0, 0.5, 0.5, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="^s2 requires strictly increasing interior knots$"):
            s2(ks)


class TestGS1:
    def test_exact_degree_one(self):
        rng = np.random.default_rng(300)
        for m in (2, 3, 4):
            ok, _ = is_exact_on(gs1(random_clamped(m, 8, rng)), 1)
            assert ok

    def test_unit_norm(self):
        rng = np.random.default_rng(301)
        assert nu_bound(gs1(random_clamped(3, 9, rng))) == 1.0

    def test_second_monomial_residual(self):
        # overshoot on the degree-2 monomial is 2m/(m+1) lam per index
        rng = np.random.default_rng(302)
        for m in (2, 3, 4):
            ks = random_clamped(m, 8, rng)
            g1 = gs1(ks)
            for i in range(1, ks.nbasis - 1):
                assert g1.functionals[i].kernel_entries == ((i, 1.0),)
                res = ks.dual_moment(i, 2) - ks.moments("symmetric", [i], 2)[0, 2]
                assert res == pytest.approx(2 * m / (m + 1) * ks.lam(i), rel=1e-9)

    def test_positivity(self):
        rng = np.random.default_rng(303)
        ks = random_clamped(3, 9, rng)
        coeffs = gs1(ks).coefficients(lambda x: 0.2 + np.cos(3 * np.asarray(x)) ** 2)
        assert np.all(coeffs >= 0)

    def test_monotone_coefficients_for_monotone_functions(self):
        rng = np.random.default_rng(304)
        for m in (2, 3, 4):
            for _ in range(10):
                ks = random_clamped(m, 8, rng)
                g1 = gs1(ks)
                for f in (
                    lambda x: np.asarray(x),
                    lambda x: np.asarray(x) ** 3,
                    lambda x: np.arctan(6 * (np.asarray(x) - 0.5)),
                ):
                    c = g1.coefficients(f)
                    assert np.all(np.diff(c) >= -1e-12 * max(1.0, np.abs(c).max()))

    def test_convexity_second_differences(self):
        rng = np.random.default_rng(305)
        ks = random_clamped(3, 9, rng)
        g1 = gs1(ks)
        theta = np.array([ks.greville(j) for j in range(ks.nbasis)])
        for f in (
            lambda x: np.asarray(x) ** 2,
            lambda x: (np.asarray(x) - 0.3) ** 2 + np.asarray(x),
        ):
            c = g1.coefficients(f)
            dd = np.diff(np.diff(c) / np.diff(theta))
            assert np.all(dd >= -1e-10)


class TestGS2:
    @pytest.mark.parametrize("maker, name", [(gs1, "gs1"), (gs2, "gs2")])
    def test_degree_one_rejected(self, maker, name):
        with pytest.raises(ValueError, match=f"^{name} requires degree >= 2$"):
            maker(KnotSequence.clamped(1, [0.0, 0.5, 1.0]))

    def test_degenerate_pad_window_rejected(self):
        # a cardinal sequence built directly, with a one-point Greville window
        # t_{-3..-1} in its padding: the stencil of index 0 reads its dual kernel
        knots = np.concatenate([[-5.0, -4.0, -3.0, -3.0, -3.0], np.arange(0.0, 13.0)])
        ks = KnotSequence(3, knots, cardinal=True, pad=2)
        with pytest.raises(ValueError, match="^degenerate dual kernel window at index -1$"):
            gs2(ks)

    def test_uniform_cardinal_weights(self):
        q = gs2(KnotSequence.cardinal_uniform(2, 30, pad=2))
        _, weights = _stencil(q, 15)
        np.testing.assert_allclose(weights, [-1.0 / 6.0, 4.0 / 3.0, -1.0 / 6.0], rtol=1e-12)
        assert nu_bound(q) == pytest.approx(5.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_exact_degree_two(self, m):
        rng = np.random.default_rng(400 + m)
        for _ in range(5):
            ok, worst = is_exact_on(gs2(random_clamped(m, 8, rng)), 2)
            assert ok, worst

    def test_batched_weights_match_the_per_index_loop(self):
        for ks in _sequences(430):
            q = gs2(ks)
            ends = () if ks.cardinal else (0, ks.nbasis - 1)
            for i in ks.basis_indices:
                lam = q.functionals[i]
                if i in ends:
                    assert lam.point_entries == ((i, 1.0),) and not lam.kernel_entries
                    continue
                got = dict(lam.point_entries) | dict(lam.kernel_entries)
                want = _gs2_weights_loop(ks, i)
                assert sorted(got) == [i - 1, i, i + 1]
                err = np.abs(np.array([got[i - 1], got[i], got[i + 1]]) - want).max()
                assert err <= 1e-14 * np.abs(want).max(), (ks, i, err)

    def test_weights_within_1e_14_of_exact_rationals(self):
        # the systems were centred but not scaled: 3.2e-14 off on these
        rng = np.random.default_rng(9)
        worst = 0.0
        for m in (3, 4, 5):
            for _ in range(6):
                ks = random_clamped(m, 10, rng)
                q = gs2(ks)
                for i in range(1, ks.nbasis - 1):
                    got = dict(q.functionals[i].point_entries) | dict(q.functionals[i].kernel_entries)
                    want = exact_gs2_weights(ks, i)
                    worst = max(worst, *(abs(got[j] - float(x)) for j, x in zip((i - 1, i, i + 1), want)))
        assert worst <= 1e-14, worst

    def test_singular_system_names_the_first_singular_index(self, monkeypatch):
        ks = random_clamped(3, 9, np.random.default_rng(440))
        moments = KnotSequence._moments  # gs2 reads its checked stencil without a second check

        def broken(self, kind, js, rmax, center, scale):
            out = moments(self, kind, js, rmax, center, scale)
            if kind == "dual":
                out[np.asarray(js) >= 5] = 0.0  # members from index 5 on vanish
            return out

        monkeypatch.setattr(KnotSequence, "_moments", broken)
        with pytest.raises(RuntimeError, match="singular reproduction system at index 4"):
            gs2(ks)

    def test_norm_bound_5_low_degrees(self):
        # the degree-independent claim is exercised by the acceptance suite;
        # for quadratics and cubics the weight bound holds on every partition
        rng = np.random.default_rng(420)
        for m in (2, 3):
            for _ in range(50):
                assert nu_bound(gs2(random_clamped(m, 8, rng))) <= 5.0 + 1e-12


class TestWholeSequenceConstructors:
    def test_s2_entries_bitwise_equal_to_the_per_index_loop(self):
        for ks in _sequences(450):
            q = s2(ks)
            for i in ks.basis_indices:
                assert q.functionals[i].point_entries == _s2_entries_loop(ks, i)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_qp2_entries_bitwise_equal_to_the_per_index_loop(self, p):
        rng = np.random.default_rng(460 + p)
        for n in (2 * p + 2, 15):
            ks = random_admissible_clamped(n, rng, p)
            q = nb_dqi_nonuniform(ks, p)
            for i in ks.basis_indices:
                assert q.functionals[i].point_entries == _qp2_entries_loop(ks, i, p)

    def test_partition_violations_match_the_per_index_loop(self):
        rng = np.random.default_rng(470)
        seen = 0
        for _ in range(60):
            ratio = float(rng.choice([1.5, 1e3]))
            ks = random_clamped(2, int(rng.integers(1, 14)), rng, ratio=ratio)
            for p in (0, 1, 2, 3, 5):
                got = partition_condition_violations(ks, p)
                assert got == _partition_violations_loop(ks, p)
                seen += bool(got)
        cardinal = KnotSequence.cardinal_uniform(2, 10, pad=3)
        for p in (1, 2, 3):
            assert partition_condition_violations(cardinal, p) == []
        assert seen > 0


_KNOTS = [0.0, 0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.0, 1.0]
_KS = KnotSequence.clamped(2, np.linspace(0.0, 1.0, 13))


@pytest.mark.parametrize(
    "name, call",
    [
        ("degree", lambda: KnotSequence(2.5, _KNOTS)),
        ("degree", lambda: KnotSequence(True, _KNOTS)),
        ("pad", lambda: KnotSequence(2, _KNOTS, pad=1.5)),
        ("degree", lambda: KnotSequence.clamped(2.0, [0.0, 0.5, 1.0])),
        ("degree", lambda: KnotSequence.cardinal_uniform(np.float64(3.0), 5)),
        ("nspans", lambda: KnotSequence.cardinal_uniform(2, 2.5)),
        ("pad", lambda: KnotSequence.cardinal_uniform(2, 5, pad=1.5)),
        ("order", lambda: uniform_nb_dqi(4.0, 2)),
        ("n", lambda: uniform_nb_dqi(4, 1.5)),
        ("r", lambda: uniform_nb_iqi(4, 2, r=2.0)),
        ("nspans", lambda: uniform_nb_iqi(4, 2, nspans=8.5)),
        ("r", lambda: solve_symmetric_uniform(4, 2, 3.0)),
        ("p", lambda: NearBestProblem.from_discrete(_KS, 5, 1.5, 2)),
        ("q", lambda: NearBestProblem.from_discrete(_KS, 5, 2, 2.0)),
        ("p", lambda: NearBestProblem.from_integral(_KS, 5, True, 2)),
        ("p", lambda: nb_dqi_nonuniform(_KS, 2.0)),
        ("p", lambda: partition_condition_violations(_KS, 2.5)),
        ("samples_per_span", lambda: empirical_norm_discrete(s2(_KS), samples_per_span=16.5)),
        ("samples_per_span", lambda: empirical_norm_integral(gs2(_KS), samples_per_span=np.float64(32))),
        ("sign_samples", lambda: empirical_norm_integral(gs2(_KS), 16, sign_samples=-1, mode="kernel")),
        ("sign_samples", lambda: empirical_norm_integral(gs2(_KS), 16, sign_samples=2.5, mode="kernel")),
        ("sign_samples", lambda: integral_lebesgue_function(gs2(_KS), 0.5, "kernel", np.float64(8.0))),
    ],
)
def test_size_arguments_must_be_integers(name, call):
    # a size argument with a lower bound names it in the message
    with pytest.raises(ValueError, match=rf"^{name} must be an integer( >= \d+)?, got "):
        call()


class TestUniformFamilies:
    def test_cubic_dqi_closed_form_weights(self):
        q = uniform_nb_dqi(4, 2)
        offsets, weights = _stencil(q, q.ks.nbasis // 2)
        assert offsets == [-2, 0, 2]
        np.testing.assert_allclose(weights, [-1.0 / 24.0, 13.0 / 12.0, -1.0 / 24.0], rtol=1e-13)

    def test_cubic_dqi_single_offset_weights(self):
        q = uniform_nb_dqi(4, 1)
        _, weights = _stencil(q, q.ks.nbasis // 2)
        np.testing.assert_allclose(weights, [-1.0 / 6.0, 4.0 / 3.0, -1.0 / 6.0], rtol=1e-13)
        assert nu_bound(q) == pytest.approx(5.0 / 3.0, rel=1e-13)

    @pytest.mark.parametrize("n,want", [(1, 5.0 / 3.0), (2, 7.0 / 6.0), (3, 1 + 2.0 / 27.0)])
    def test_cubic_dqi_nu(self, n, want):
        assert nu_bound(uniform_nb_dqi(4, n)) == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize("n,want", [(1, 7.0 / 3.0), (2, 4.0 / 3.0), (3, 1 + 4.0 / 27.0)])
    def test_cubic_iqi_nu(self, n, want):
        assert nu_bound(uniform_nb_iqi(4, n)) == pytest.approx(want, abs=1e-14)

    def test_exact_degree_three(self):
        for q in (uniform_nb_dqi(4, 2, nspans=20), uniform_nb_iqi(4, 2, nspans=20)):
            ok, worst = is_exact_on(q, 3)
            assert ok, worst

    def test_lower_reproduction_degree_via_solver(self):
        q = uniform_nb_dqi(4, 2, r=1, nspans=20)
        assert nu_bound(q) == pytest.approx(1.0, abs=1e-12)

    def test_order_six_family(self):
        q = uniform_nb_dqi(6, 3, r=3, nspans=24)
        ok, _ = is_exact_on(q, 3)
        assert ok

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="even"):
            uniform_nb_dqi(3, 2)
        with pytest.raises(ValueError, match="n must be >= 1"):
            uniform_nb_dqi(4, 0)
        with pytest.raises(ValueError, match="order - 1"):
            uniform_nb_iqi(4, 2, r=4)

    @pytest.mark.parametrize(
        "order, n, r, message",
        [
            (3, 2, 1, "order must be an even integer >= 2"),
            (4, 0, 1, "stencil half-width n must be >= 1"),
            (4, 2, -1, "reproduction degree r must satisfy 0 <= r <= order - 1"),
            (4, 2, 4, "reproduction degree r must satisfy 0 <= r <= order - 1"),
        ],
    )
    @pytest.mark.parametrize("kind", ["dqi", "iqi"])
    def test_families_and_solver_check_arguments_alike(self, order, n, r, message, kind):
        family = uniform_nb_dqi if kind == "dqi" else uniform_nb_iqi
        for call in (lambda: family(order, n, r), lambda: solve_symmetric_uniform(order, n, r, kind=kind)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call()

    def test_solver_rejects_an_unknown_kind(self):
        with pytest.raises(ValueError, match="^kind must be 'dqi' or 'iqi'$"):
            solve_symmetric_uniform(4, 2, 3, kind="gqi")


class TestNonuniformNB:
    def test_uniform_weights_any_p(self):
        ks = KnotSequence.clamped(2, np.linspace(0.0, 1.0, 25))
        for p in (2, 3, 5):
            q = nb_dqi_nonuniform(ks, p)
            offsets, weights = _stencil(q, 12)
            want = [-1 / (8 * p * p), 1 + 1 / (4 * p * p), -1 / (8 * p * p)]
            np.testing.assert_allclose(weights, want, rtol=1e-11)
            assert offsets == [-p, 0, p]

    def test_exact_degree_two_on_admissible_partitions(self):
        rng = np.random.default_rng(500)
        for p in (2, 3):
            for _ in range(10):
                ks = random_admissible_clamped(12, rng, p)
                ok, worst = is_exact_on(nb_dqi_nonuniform(ks, p), 2)
                assert ok, worst

    def test_norm_bound_3(self):
        rng = np.random.default_rng(501)
        for p in (2, 3, 5):
            for _ in range(25):
                ks = random_admissible_clamped(12, rng, p)
                assert nu_bound(nb_dqi_nonuniform(ks, p)) <= 3.0 + 1e-12

    @pytest.mark.parametrize("e", [0, -35, -40])
    def test_violation_found_at_every_scale(self, e):
        # index 2 violates the condition by 0.028 on [0, 1] (0.829 > 0.801);
        # an absolute tolerance floor passed it once scaled by 2^-35
        ks = KnotSequence.clamped(2, geometric_breakpoints(4, 2.0) * 2.0**e)
        assert partition_condition_violations(ks, 2) == [2]

    def test_violating_partition_reports_index(self):
        # one very long span in the middle breaks the balance condition
        bp = np.concatenate([np.linspace(0, 0.2, 7), [5.0, 5.1, 5.2, 5.3, 5.4, 5.5]])
        ks = KnotSequence.clamped(2, bp)
        bad = partition_condition_violations(ks, 2)
        assert bad
        with pytest.raises(PartitionConditionError) as err:
            nb_dqi_nonuniform(ks, 2)
        assert err.value.index == bad[0]

    def test_requires_quadratic(self):
        ks = KnotSequence.clamped(3, np.linspace(0, 1, 9))
        with pytest.raises(ValueError, match="quadratic"):
            nb_dqi_nonuniform(ks, 2)

    def test_requires_p_at_least_two(self):
        ks = KnotSequence.clamped(2, np.linspace(0, 1, 9))
        with pytest.raises(ValueError, match="p must be >= 2"):
            nb_dqi_nonuniform(ks, 1)


class TestExactnessSweep:
    def test_all_families_reproduce_claimed_degree(self):
        rng = np.random.default_rng(600)
        for _ in range(25):
            for m in (2, 3, 4):
                ks = random_clamped(m, 7, rng)
                for q in (schoenberg(ks), s2(ks), gs1(ks), gs2(ks)):
                    ok, worst = is_exact_on(q, q.degree_exact)
                    assert ok, (q.family, m, worst)


class TestAgainstTheScalarPaths:
    @pytest.mark.parametrize("m", range(2, 12))
    def test_lam_against_the_pair_formula(self, m):
        # the recurrence sums m(m-1)/2 mixed-sign products where the pair
        # formula sums m squares: above degree 6 the gap grows with m
        bound = 4 if m <= 6 else m
        rng = np.random.default_rng(480 + m)
        for ks in (
            random_clamped(m, 12, rng, ratio=1e6),
            KnotSequence(m, np.concatenate([[0.0] * m, [0, 0.3, 0.3, 0.7, 1], [1.0] * m])),
            KnotSequence.cardinal_uniform(m, 6, pad=2, start=-1.3, spacing=0.37),
        ):
            lo, hi = ks.greville_range()
            for i in range(lo, hi + 1):
                assert _ulps(ks.lam(i), _lam_oracle(ks, i)) <= bound, (ks, i)

    def test_golden_weights(self):
        golden = json.loads(GOLDEN_WEIGHTS.read_text())
        names = []
        for name, q in golden_operators():
            names.append(name)
            family = name.split("/")[1]
            # lam moved from the pair formula to the recurrence; the order-6
            # n = 3 right-hand sides of orders 2 and 4 from the pair formula
            # and np.poly to the recurrence
            moved = family in ("S2", "Q_p2") or name.startswith(("uniform-dqi/6/3", "uniform-iqi/6/3"))
            for key, text in golden_record(q).items():
                got = np.array([float.fromhex(v) for v in text.split()])
                want = np.array([float.fromhex(v) for v in golden[name][key].split()])
                assert got.shape == want.shape, (name, key)
                if moved:
                    assert _ulps(got, want).max(initial=0.0) <= 4, (name, key)
                else:
                    assert np.array_equal(got, want), (name, key)
        assert sorted(names) == sorted(golden)
