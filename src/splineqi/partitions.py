"""Partition and mesh generators shared by the command line and the tests; every partition is on [0, 1]."""

from __future__ import annotations

import numpy as np

from .bivariate import TensorMesh
from .quasiinterp import partition_condition_violations
from .splinecore import KnotSequence, _floats, _int_arg

__all__ = [
    "uniform_breakpoints",
    "geometric_breakpoints",
    "random_breakpoints",
    "random_clamped",
    "random_admissible_clamped",
    "random_mesh",
    "parse_knot_spec",
]


def uniform_breakpoints(n: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, _int_arg("n", n, 1) + 1)


def geometric_breakpoints(n: int, ratio: float) -> np.ndarray:
    """Spans in geometric progression; ratio is last span over first span."""
    n = _int_arg("n", n, 1)
    if not 0 < ratio < np.inf:
        raise ValueError(f"ratio must be finite and > 0, got {ratio!r}")
    q = ratio ** (1.0 / max(n - 1, 1))
    spans = q ** np.arange(n)
    cuts = np.concatenate([[0.0], np.cumsum(spans)])
    return cuts / cuts[-1]


def random_breakpoints(n: int, rng: np.random.Generator, ratio: float = 1e3) -> np.ndarray:
    """Spans log-uniform in [1, ratio], rescaled to [0, 1]."""
    n = _int_arg("n", n, 1)
    if not 1 <= ratio < np.inf:
        raise ValueError(f"ratio must be finite and >= 1, got {ratio!r}")
    spans = np.exp(rng.uniform(0.0, np.log(ratio), n))
    cuts = np.concatenate([[0.0], np.cumsum(spans)])
    return cuts / cuts[-1]


def random_clamped(degree: int, n: int, rng: np.random.Generator, ratio: float = 1e3) -> KnotSequence:
    return KnotSequence.clamped(degree, random_breakpoints(n, rng, ratio))


_JITTER, _MAX_TRIES = 0.4, 200  # spans are drawn in [1, 1 + _JITTER)


def random_admissible_clamped(n: int, rng: np.random.Generator, p: int) -> KnotSequence:
    """Random quadratic-spline partition satisfying the stencil balance
    condition for offset p (mildly perturbed uniform spans; rejection)."""
    n = _int_arg("n", n, 1)
    for _ in range(_MAX_TRIES):
        spans = 1.0 + _JITTER * rng.random(n)
        cuts = np.concatenate([[0.0], np.cumsum(spans)])
        ks = KnotSequence.clamped(2, cuts / cuts[-1])
        if not partition_condition_violations(ks, p):
            return ks
    raise RuntimeError(f"failed to draw an admissible partition in {_MAX_TRIES} tries")


def random_mesh(
    nx: int, ny: int, rng: np.random.Generator, ratio: float = 1e3
) -> TensorMesh:
    nx, ny = _int_arg("nx", nx, 1), _int_arg("ny", ny, 1)
    return TensorMesh(random_breakpoints(nx, rng, ratio), random_breakpoints(ny, rng, ratio))


_SPEC_FORMS = {
    "uniform": "uniform:N",
    "geometric": "geometric:N:ratio",
    "random": "random:N[:seed]",
    "cardinal": "cardinal:N[:pad]",
}


def _spec_field(form: str, name: str, text: str, low: int, cast=int):
    """Field ``name`` of a knot spec of ``form``: an integer >= low, or with
    ``cast=float`` a finite number > low."""
    try:
        value = cast(text)
    except ValueError:
        value = np.nan
    if not (low <= value if cast is int else low < value < np.inf):
        bound = f"an integer >= {low}" if cast is int else f"finite and > {low}"
        raise ValueError(f"knot spec {form}: {name} must be {bound}, got {text!r}")
    return value


def parse_knot_spec(spec: str, degree: int, seed: int | None = None) -> KnotSequence:
    """Build a knot sequence from a compact description.

    ``uniform:N`` clamped uniform on [0, 1]; ``geometric:N:ratio`` clamped
    geometric spans; ``random:N:seed`` clamped with log-uniform span ratios
    up to 1e3; ``cardinal:N[:pad]`` plain uniform with unit spacing and pad
    (default 6) extra knots at each end (the bi-infinite emulation).  A spec
    containing whitespace is read as inline knot values.  A malformed spec
    raises ``ValueError`` naming its form.
    """
    spec = spec.strip()
    if any(ch.isspace() for ch in spec):
        return KnotSequence(degree, _floats(spec, "inline knot values"))
    kind, *fields = spec.split(":")
    form = _SPEC_FORMS.get(kind)
    if form is None:
        raise ValueError(f"unknown knot spec {spec!r}")
    if not form.split("[")[0].count(":") <= len(fields) <= form.count(":"):  # fields in [] are optional
        raise ValueError(f"knot spec {spec!r} does not have the form {form}")
    n = _spec_field(form, "N", fields[0], 1)
    if kind == "uniform":
        return KnotSequence.clamped(degree, uniform_breakpoints(n))
    if kind == "geometric":
        ratio = _spec_field(form, "ratio", fields[1], 0, float)
        return KnotSequence.clamped(degree, geometric_breakpoints(n, ratio))
    if kind == "random":
        used_seed = _spec_field(form, "seed", fields[1], 0) if len(fields) > 1 else seed
        if used_seed is None:
            raise ValueError("random knot spec needs a seed (random:N:seed or --seed)")
        return random_clamped(degree, n, np.random.default_rng(used_seed))
    pad = _spec_field(form, "pad", fields[1], 0) if len(fields) > 1 else 6
    return KnotSequence.cardinal_uniform(degree, n, pad=pad)
