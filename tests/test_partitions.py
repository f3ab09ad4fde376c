"""Tests for the partition generators and the knot-spec parser."""

import re

import numpy as np
import pytest

from splineqi.partitions import (
    geometric_breakpoints,
    parse_knot_spec,
    random_admissible_clamped,
    random_breakpoints,
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


@pytest.mark.parametrize("n, ratio", [(0, 2.0), (4, 0.0), (4, -1.0), (4, np.nan), (4, np.inf)])
def test_geometric_breakpoints_checked(n, ratio):
    with pytest.raises(ValueError, match="^need n >= 1 and a finite ratio > 0$"):
        geometric_breakpoints(n, ratio)


@pytest.mark.parametrize("n, ratio", [(0, 1e3), (-2, 1e3), (4, 0.0), (4, -1.0), (4, 0.5), (4, np.nan), (4, np.inf)])
def test_random_breakpoints_checked(n, ratio):
    with pytest.raises(ValueError, match=f"^random spans need n >= 1 and a finite ratio >= 1, got n={n}, ratio="):
        random_breakpoints(n, np.random.default_rng(0), ratio)


def test_random_breakpoints_at_ratio_one_are_uniform():
    np.testing.assert_allclose(random_breakpoints(4, np.random.default_rng(0), 1.0), np.linspace(0, 1, 5))


def test_admissible_draw_gives_up_after_max_tries():
    with pytest.raises(RuntimeError, match="^failed to draw an admissible partition; lower the jitter$"):
        random_admissible_clamped(8, np.random.default_rng(0), 2, max_tries=0)


def test_random_spec_needs_a_seed():
    with pytest.raises(ValueError, match=r"^random knot spec needs a seed \(random:N:seed or --seed\)$"):
        parse_knot_spec("random:8", 2)
    assert parse_knot_spec("random:8", 2, seed=3).n == 8


def test_unknown_spec():
    with pytest.raises(ValueError, match="^unknown knot spec 'chebyshev:8'$"):
        parse_knot_spec("chebyshev:8", 2)
