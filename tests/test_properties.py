"""Property tests: partition of unity, polynomial reproduction on drawn
partitions, weights that scale exactly under a power-of-two change of
length unit, and byte-identical command line output across runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splineqi import KnotSequence, gs1, gs2, s2, schoenberg
from splineqi.cli import main
from splineqi.nearbest import NearBestProblem, solve_l1
from splineqi.partitions import random_admissible_clamped
from splineqi.quasiinterp import nb_dqi_nonuniform, uniform_nb_dqi, uniform_nb_iqi

EPS = np.finfo(float).eps

# clamped partitions of [0, 1]: degree 2-5, 1-12 spans whose ratio is at most 1e3
degrees = st.integers(2, 5)
span_lists = st.lists(st.floats(1.0, 1e3), min_size=1, max_size=12)
points = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40)


def _breakpoints(spans):
    bp = np.concatenate([[0.0], np.cumsum(spans)])
    return bp / bp[-1]


@settings(max_examples=200, deadline=None)
@given(m=degrees, spans=span_lists, xs=points)
def test_basis_rows_sum_to_one(m, spans, xs):
    bp = _breakpoints(spans)
    ks = KnotSequence.clamped(m, bp)
    # the drawn points, every breakpoint and a point just inside each end
    x = np.concatenate([xs, bp, [np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)]])
    _, rows = ks.basis_rows(x)
    assert np.all(rows >= 0.0)
    # up to 3.5 ulps seen over 3000 drawn cases
    assert np.abs(rows.sum(axis=1) - 1.0).max() <= 8 * EPS


@settings(max_examples=60, deadline=None)
@given(
    m=degrees,
    spans=span_lists,
    maker=st.sampled_from([schoenberg, s2, gs1, gs2]),
    coeffs=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    xs=points,
)
def test_families_reproduce_a_polynomial_of_their_exact_degree(m, spans, maker, coeffs, xs):
    bp = _breakpoints(spans)
    q = maker(KnotSequence.clamped(m, bp))
    c = np.asarray(coeffs[: q.degree_exact + 1])
    x = np.concatenate([xs, bp])
    got = q.evaluate(lambda t: np.polynomial.polynomial.polyval(t, c), x)
    want = np.polynomial.polynomial.polyval(x, c)
    assert np.abs(got - want).max() <= (q.degree_exact + 1) * 1e-10


def _outcome(build):
    """Raw bytes of every weight and row norm of ``build()``, or its error."""
    try:
        q = build()
    except ValueError as exc:
        return repr(exc)
    return [b.weights.tobytes() for b in q.bands] + [q.row_norms.tobytes()]


# 2**e is exact, and so is every knot times it: no overflow or subnormal here
exponents = st.integers(-40, 40)


@settings(max_examples=40, deadline=None)
@given(
    m=degrees,
    spans=span_lists,
    e=exponents,
    maker=st.sampled_from([schoenberg, s2, gs1, gs2]),
    cardinal=st.booleans(),
)
def test_knot_family_weights_are_invariant_under_power_of_two_scaling(m, spans, e, maker, cardinal):
    def make(h):
        if cardinal:
            return KnotSequence.cardinal_uniform(m, len(spans) + 2, pad=2, spacing=h)
        return KnotSequence.clamped(m, _breakpoints(spans) * h)

    assert _outcome(lambda: maker(make(2.0**e))) == _outcome(lambda: maker(make(1.0)))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(4, 12), seed=st.integers(0, 2**32 - 1), p=st.integers(2, 3), e=exponents)
def test_qp2_weights_are_invariant_under_power_of_two_scaling(n, seed, p, e):
    # partitions that satisfy the balance condition, so that both scales build
    bp = np.unique(random_admissible_clamped(n, np.random.default_rng(seed), p).knots)
    want = _outcome(lambda: nb_dqi_nonuniform(KnotSequence.clamped(2, bp), p))
    assert _outcome(lambda: nb_dqi_nonuniform(KnotSequence.clamped(2, bp * 2.0**e), p)) == want


@settings(max_examples=20, deadline=None)
@given(
    maker=st.sampled_from([uniform_nb_dqi, uniform_nb_iqi]),
    order=st.sampled_from([2, 4, 6]),
    n=st.integers(1, 3),
    r=st.integers(0, 5),
    e=exponents,
)
def test_uniform_weights_are_invariant_under_power_of_two_spacing(maker, order, n, r, e):
    r = min(r, order - 1)
    want = _outcome(lambda: maker(order, n, r, nspans=8))
    assert _outcome(lambda: maker(order, n, r, nspans=8, spacing=2.0**e)) == want


@settings(max_examples=30, deadline=None)
@given(
    m=degrees,
    spans=st.lists(st.floats(1.0, 1e3), min_size=8, max_size=12),
    e=exponents,
    integral=st.booleans(),
    data=st.data(),
)
def test_l1_optima_are_invariant_under_power_of_two_scaling(m, spans, e, integral, data):
    p = data.draw(st.integers(1, 2))
    q = data.draw(st.integers(0, min(m, 2 * p)))
    i = data.draw(st.integers(p + 1, len(spans) + m - 2 - p))  # the stencil fits either way
    build = NearBestProblem.from_integral if integral else NearBestProblem.from_discrete
    sols = [solve_l1(build(KnotSequence.clamped(m, _breakpoints(spans) * h), i, p, q)) for h in (1.0, 2.0**e)]
    assert sols[0].weights.tobytes() == sols[1].weights.tobytes()
    assert sols[0].nu == sols[1].nu


CLI_RUNS = [
    "repro",
    "build --family s2 --m 3 --knots random:10:4",
    "build --family uiqi --order 4 --n 2 --spans 8",
    *(f"biv --table {t} --mesh random --nx 6 --ny 7 --seed 2" for t in ("t2", "g2", "residuals")),
]


@pytest.mark.parametrize("args", CLI_RUNS)
def test_cli_bytes_are_identical_across_runs(capsys, args):
    outs = []
    for _ in range(2):
        assert main(args.split()) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] and outs[0] == outs[1]
