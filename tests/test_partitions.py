"""Tests for the partition generators and the knot-spec parser."""

import numpy as np
import pytest

from splineqi.partitions import parse_knot_spec, random_admissible_clamped


@pytest.mark.parametrize("spec", ["geometric:0:2", "geometric:4:0", "geometric:4:-1"])
def test_geometric_spec_needs_spans_and_a_positive_ratio(spec):
    with pytest.raises(ValueError, match="^need n >= 1 and ratio > 0$"):
        parse_knot_spec(spec, 2)


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
