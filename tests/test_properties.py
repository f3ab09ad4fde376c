"""Property tests: partition of unity, polynomial reproduction on drawn
partitions, and byte-identical command line output across runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splineqi import KnotSequence, gs1, gs2, s2, schoenberg
from splineqi.cli import main

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
