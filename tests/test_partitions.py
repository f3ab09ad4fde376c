"""Tests for the partition generators and the knot-spec parser."""

import re

import numpy as np
import pytest

from splineqi import KnotSequence, partitions
from splineqi.bivariate import TensorMesh
from splineqi.partitions import (
    geometric_breakpoints,
    parse_knot_spec,
    random_admissible_clamped,
    random_breakpoints,
    random_clamped,
    random_mesh,
    uniform_breakpoints,
)


GEOMETRIC_ERRORS = [
    ("geometric:0:2", "N must be an integer >= 1, got '0'"),
    ("geometric:4:0", "ratio must be finite and > 0, got '0'"),
    ("geometric:4:-1", "ratio must be finite and > 0, got '-1'"),
    ("geometric:4:nan", "ratio must be finite and > 0, got 'nan'"),
    ("geometric:4:inf", "ratio must be finite and > 0, got 'inf'"),
    ("geometric:4:x", "ratio must be finite and > 0, got 'x'"),
]


@pytest.mark.parametrize("spec, error", GEOMETRIC_ERRORS, ids=[spec for spec, _ in GEOMETRIC_ERRORS])
def test_geometric_spec_needs_spans_and_a_positive_ratio(spec, error):
    with pytest.raises(ValueError, match=f"^{re.escape('knot spec geometric:N:ratio: ' + error)}$"):
        parse_knot_spec(spec, 2)


@pytest.mark.parametrize(
    "spec, form",
    [
        ("uniform", "uniform:N"),
        ("uniform:4:5", "uniform:N"),
        ("geometric:12", "geometric:N:ratio"),
        ("geometric:12:2:3", "geometric:N:ratio"),
        ("random", "random:N[:seed]"),
        ("random:8:3:1", "random:N[:seed]"),
        ("cardinal", "cardinal:N[:pad]"),
        ("cardinal:8:3:1", "cardinal:N[:pad]"),
    ],
)
def test_spec_field_count_checked(spec, form):
    with pytest.raises(ValueError, match=f"^knot spec '{re.escape(spec)}' does not have the form {re.escape(form)}$"):
        parse_knot_spec(spec, 2, seed=1)


INTEGER_ERRORS = [
    ("uniform:-3", "knot spec uniform:N: N must be an integer >= 1, got '-3'"),
    ("uniform:0", "knot spec uniform:N: N must be an integer >= 1, got '0'"),
    ("uniform:2.5", "knot spec uniform:N: N must be an integer >= 1, got '2.5'"),
    ("uniform:", "knot spec uniform:N: N must be an integer >= 1, got ''"),
    ("random:0:3", "knot spec random:N[:seed]: N must be an integer >= 1, got '0'"),
    ("random:8:-1", "knot spec random:N[:seed]: seed must be an integer >= 0, got '-1'"),
    ("cardinal:x", "knot spec cardinal:N[:pad]: N must be an integer >= 1, got 'x'"),
    ("cardinal:8:-2", "knot spec cardinal:N[:pad]: pad must be an integer >= 0, got '-2'"),
]


@pytest.mark.parametrize("spec, message", INTEGER_ERRORS, ids=[spec for spec, _ in INTEGER_ERRORS])
def test_spec_integers_checked(spec, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_knot_spec(spec, 2)


def test_well_formed_specs():
    assert parse_knot_spec("uniform:8", 2).n == 8
    assert parse_knot_spec("geometric:8:0.5", 3).n == 8
    assert parse_knot_spec("random:8:3", 2).knots.tolist() == parse_knot_spec("random:8", 2, seed=3).knots.tolist()
    assert parse_knot_spec("cardinal:8", 2).pad == 6
    assert parse_knot_spec("cardinal:8:3", 2).pad == 3


@pytest.mark.parametrize("ratio", [0.0, -1.0, np.nan, np.inf])
def test_geometric_breakpoints_checked(ratio):
    with pytest.raises(ValueError, match=f"^{re.escape(f'ratio must be finite and > 0, got {ratio!r}')}$"):
        geometric_breakpoints(4, ratio)


@pytest.mark.parametrize("ratio", [0.0, -1.0, 0.5, np.nan, np.inf])
def test_random_breakpoints_checked(ratio):
    with pytest.raises(ValueError, match=f"^{re.escape(f'ratio must be finite and >= 1, got {ratio!r}')}$"):
        random_breakpoints(4, np.random.default_rng(0), ratio)


MALFORMED = {
    # 2.5 built 3 spans and True 1; the others raised numpy TypeErrors
    "geometric-n-2.5": (lambda: geometric_breakpoints(2.5, 2.0), "n must be an integer >= 1, got 2.5"),
    "geometric-n-True": (lambda: geometric_breakpoints(True, 2.0), "n must be an integer >= 1, got True"),
    "geometric-n-0": (lambda: geometric_breakpoints(0, 2.0), "n must be an integer >= 1, got 0"),
    "random-n-2.5": (lambda: random_breakpoints(2.5, np.random.default_rng(0)), "n must be an integer >= 1, got 2.5"),
    "random-n-0": (lambda: random_breakpoints(0, np.random.default_rng(0)), "n must be an integer >= 1, got 0"),
    "random-n--2": (lambda: random_breakpoints(-2, np.random.default_rng(0)), "n must be an integer >= 1, got -2"),
    "uniform-n-2.5": (lambda: uniform_breakpoints(2.5), "n must be an integer >= 1, got 2.5"),
    "clamped-n-2.5": (lambda: random_clamped(2, 2.5, np.random.default_rng(0)), "n must be an integer >= 1, got 2.5"),
    # numpy's TypeError for 2.5 and True; 0 warned, then "need at least two breakpoints"
    "admissible-n-2.5": (
        lambda: random_admissible_clamped(2.5, np.random.default_rng(0), 2), "n must be an integer >= 1, got 2.5"
    ),
    "admissible-n-True": (
        lambda: random_admissible_clamped(True, np.random.default_rng(0), 2), "n must be an integer >= 1, got True"
    ),
    "admissible-n-0": (
        lambda: random_admissible_clamped(0, np.random.default_rng(0), 2), "n must be an integer >= 1, got 0"
    ),
    "mesh-nx-2.5": (lambda: random_mesh(2.5, 3, np.random.default_rng(0)), "nx must be an integer >= 1, got 2.5"),
    "mesh-ny-0": (lambda: random_mesh(2, 0, np.random.default_rng(0)), "ny must be an integer >= 1, got 0"),
    # accepted, and numpy's concatenate message
    "mesh-2d-x": (lambda: TensorMesh([[0, 1], [2, 3]], [0, 1]), "x must be a flat sequence of grid lines"),
    "mesh-2d-y": (lambda: TensorMesh([0, 1], [[0, 1], [2, 3]]), "y must be a flat sequence of grid lines"),
    "clamped-2d": (lambda: KnotSequence.clamped(2, [[0, 1], [2, 3]]), "breakpoints must be a flat sequence"),
    # a third mesh line was dropped, and a bad token named neither its line nor its input
    "mesh-text-three-lines": (
        lambda: TensorMesh.from_text("0 1 2\n0 1 2\n7 8 9"), "expected one line of x knots and one of y knots"
    ),
    "mesh-text-token": (
        lambda: TensorMesh.from_text("0 1 2\n\n0 x 2\n"), "mesh line 3: could not convert string to float: 'x'"
    ),
    "inline-knot-token": (
        lambda: parse_knot_spec("0 0 0 1 x 2 2 2", 2), "inline knot values: could not convert string to float: 'x'"
    ),
}


@pytest.mark.parametrize("make, message", MALFORMED.values(), ids=MALFORMED)
def test_malformed_partition_and_mesh_input_rejected(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


SPANS = {
    "uniform": lambda: [uniform_breakpoints(7)],
    "geometric": lambda: [geometric_breakpoints(7, 50.0)],
    "random": lambda: [random_breakpoints(7, np.random.default_rng(1))],
    "clamped": lambda: [np.unique(random_clamped(3, 7, np.random.default_rng(2)).knots)],
    "mesh": lambda: (lambda mesh: [mesh.x, mesh.y])(random_mesh(5, 6, np.random.default_rng(3))),
}


@pytest.mark.parametrize("make", SPANS.values(), ids=SPANS)
def test_every_generator_spans_the_unit_interval(make):
    # the rescale cuts / cuts[-1] ends on exactly 1.0
    for cuts in make():
        assert cuts[0] == 0.0 and cuts[-1] == 1.0
        assert np.all(np.diff(cuts) > 0)


def test_random_breakpoints_at_ratio_one_are_uniform():
    np.testing.assert_allclose(random_breakpoints(4, np.random.default_rng(0), 1.0), np.linspace(0, 1, 5))


def test_admissible_draw_gives_up_after_max_tries(monkeypatch):
    monkeypatch.setattr(partitions, "_MAX_TRIES", 0)
    with pytest.raises(RuntimeError, match="^failed to draw an admissible partition in 0 tries$"):
        random_admissible_clamped(8, np.random.default_rng(0), 2)


def test_random_spec_needs_a_seed():
    with pytest.raises(ValueError, match=r"^random knot spec needs a seed \(random:N:seed or --seed\)$"):
        parse_knot_spec("random:8", 2)
    assert parse_knot_spec("random:8", 2, seed=3).n == 8


def test_unknown_spec():
    with pytest.raises(ValueError, match="^unknown knot spec 'chebyshev:8'$"):
        parse_knot_spec("chebyshev:8", 2)
