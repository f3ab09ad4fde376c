"""splineqi benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process, on one thread, against the package in
``src/`` of the checkout.  It sets up several times (each time importing
splineqi afresh and regenerating the inputs from the seed), runs whole
rounds of the workload's operations until ``--seconds`` have passed, checks
every output, and prints one JSON object as the last line of stdout: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Results and traces go to ``bench/out/``.  The exit code is 0
only when every check passed.  See bench/README.md.
"""

from __future__ import annotations

import os

# one thread for numpy's BLAS and OpenMP pools; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MODULES = ("splinecore", "functionals", "quasiinterp", "nearbest", "bivariate", "normest", "quadrature", "cli")

# per-layer call timings: (metric, span name, unit); the p90 of those marked
# is reported as <name>_p90_<unit> (0 where fewer than 100 samples exist)
LAYER_CALLS = [
    ("bivariate.zp_dqi_empirical_norm_s", "bivariate.zp_dqi_empirical_norm", False),
    ("normest.empirical_norm_discrete_ms", "normest.empirical_norm_discrete", False),
    ("normest.empirical_norm_integral_ms", "normest.empirical_norm_integral", False),
    ("normest.empirical_norm_integral_kernel_ms", "normest.empirical_norm_integral_kernel", False),
    ("quasiinterp.uniform_nb_dqi_ms", "quasiinterp.uniform_nb_dqi", False),
    ("quasiinterp.uniform_nb_iqi_ms", "quasiinterp.uniform_nb_iqi", False),
    ("splinecore.KnotSequence_us", "splinecore.KnotSequence", True),
    ("quasiinterp.schoenberg_ms", "quasiinterp.schoenberg", False),
    ("quasiinterp.s2_ms", "quasiinterp.s2", False),
    ("quasiinterp.gs1_ms", "quasiinterp.gs1", False),
    ("quasiinterp.gs2_ms", "quasiinterp.gs2", False),
    ("quasiinterp.nb_dqi_nonuniform_ms", "quasiinterp.nb_dqi_nonuniform", False),
    ("functionals.is_exact_on_ms", "functionals.is_exact_on", False),
    ("splinecore.dual_moment_us", "splinecore.dual_moment", True),
    ("splinecore.basis_moment_us", "splinecore.basis_moment", True),
    ("nearbest.assemble_us", "nearbest.assemble", True),
    ("nearbest.solve_l1_us", "nearbest.solve_l1", True),
    ("bivariate.crisscross_t2_ms", "bivariate.crisscross_t2", False),
    ("bivariate.crisscross_g2_ms", "bivariate.crisscross_g2", False),
    ("bivariate.is_exact_pi2_ms", "bivariate.is_exact_pi2", False),
    ("normest.lebesgue_function_us", "normest.lebesgue_function", True),
    ("normest.integral_lebesgue_function_us", "normest.integral_lebesgue_function", True),
    ("normest.integral_lebesgue_function_kernel_ms", "normest.integral_lebesgue_function_kernel", True),
    ("splinecore.basis_row_us", "splinecore.basis_row", True),
    ("functionals.coefficients_ms", "functionals.coefficients", False),
    ("functionals.evaluate_ms", "functionals.evaluate", False),
    ("quadrature.qi_to_quadrature_ms", "quadrature.qi_to_quadrature", False),
    ("quadrature.exactness_degree_us", "quadrature.exactness_degree", True),
]
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}

# operation classes: (rate metric, unit, workload class span, per-round work count)
CLASS_RATES = [
    ("build_ops_per_s", "ops/s", "rough-build.build", "quasiinterp.operators"),
    ("lp_solves_per_s", "solves/s", "rough-build.lp", "nearbest.problems"),
    ("crisscross_cells_per_s", "cells/s", "rough-build.crisscross", "bivariate.cells"),
    ("lebesgue_samples_per_s", "samples/s", "rough-norms.lebesgue", "normest.lebesgue_samples"),
    ("kernel_samples_per_s", "samples/s", "rough-norms.kernel", "normest.kernel_samples"),
    ("eval_points_per_s", "points/s", "rough-norms.evaluate", "functionals.points"),
    ("quad_rules_per_s", "rules/s", "rough-norms.quadrature", "quadrature.rules"),
]
COUNTS = [
    "quasiinterp.operators",
    "nearbest.problems",
    "nearbest.failed",
    "normest.samples",
    "functionals.points",
    "bivariate.cells",
    "quadrature.rules",
]


def per_layer_units() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in output order."""
    out = [("traced_round_s", "s"), ("cli.repro_overhead_ms", "ms")]
    for metric, _, with_p90 in LAYER_CALLS:
        base, unit = metric.rsplit("_", 1)
        out.append((metric, unit))
        if with_p90:
            out.append((f"{base}_p90_{unit}", unit))
    out += [(name, unit) for name, unit, _, _ in CLASS_RATES]
    out += [(name, "count") for name in COUNTS]
    return out


END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("round_s", "s")]


def load_splineqi() -> SimpleNamespace:
    """Import splineqi afresh from src/ (earlier imports are dropped)."""
    for name in [n for n in sys.modules if n == "splineqi" or n.startswith("splineqi.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return SimpleNamespace(**{m: importlib.import_module(f"splineqi.{m}") for m in MODULES})


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "splineqi" / "__init__.py").is_file():
        print(f"error: no splineqi package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    from reference import SpeedSampler
    from spans import Spans, median, p90
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    traced = bool(args.trace)

    spans = Spans(detail=traced)
    attempted = failed = 0
    with SpeedSampler() as speed:
        for _ in range(cls.setup_repeats):
            with spans.span("setup"):
                wl = cls(load_splineqi(), args.seed, OUT)
        start = perf_counter()
        r = 0
        while r < cls.min_rounds or perf_counter() - start < args.seconds:
            with spans.span("round"):
                n_att, n_fail = wl.round(r, spans)
            attempted += n_att
            failed += n_fail
            wl.collect(r)
            if traced:
                with spans.span("probe"):
                    wl.probe(r, spans)
            r += 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # every span's duration at the host's reference speed (see reference.py)
    span_ref = speed.rescaled(spans.starts, spans.ends)
    span_wall = spans.ends - spans.starts
    round_ref, round_wall = spans.select("round", span_ref), spans.select("round", span_wall)
    setup_ref, setup_wall = spans.select("setup", span_ref), spans.select("setup", span_wall)

    problems = wl.check()
    correct = not problems
    counts = wl.counts()
    rates = {}
    for name, unit, span_name, work in CLASS_RATES:
        busy = sum(spans.select(span_name, span_ref))
        rates[name] = counts.get(work, 0) * len(round_ref) / busy if busy > 0 else 0.0

    if traced:
        selfs = spans.self_times(span_ref)
        layer = {"traced_round_s": median(round_ref), "cli.repro_overhead_ms": 0.0}
        layer.update(wl.extra_layers(spans, span_ref))
        for metric, span_name, with_p90 in LAYER_CALLS:
            base, unit = metric.rsplit("_", 1)
            vals = selfs.get(span_name, [])
            layer[metric] = SCALE[unit] * median(vals)
            if with_p90:
                layer[f"{base}_p90_{unit}"] = SCALE[unit] * p90(vals)
        layer.update(rates)
        layer.update({name: counts.get(name, 0) for name in COUNTS})
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in per_layer_units()}
        nspans = spans.write_jsonl(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        values = {"setup_s": median(setup_ref), "peak_rss_mb": peak_mb, "round_s": median(round_ref)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        nspans = 0

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "round_wall_s": round_wall,
        "round_ref_s": round_ref,
        "setup_wall_s": setup_wall,
        "setup_ref_s": setup_ref,
        "host_speed_samples": speed.summary(),
        "class_rates": rates,
        "counts_per_round": counts,
        "spans_written": nspans,
        "distinct_failures": sorted(set(wl.failures))[:50],
        "problems": problems[:50],
        "result": result,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")

    print(
        f"{args.workload}: {len(round_ref)} rounds; round median {median(round_ref):.4f} s at reference speed, "
        f"{median(round_wall):.4f} s wall; setup median {median(setup_ref):.4f} s, {median(setup_wall):.4f} s wall"
    )
    for name, value in rates.items():
        if value:
            print(f"  {name} = {value:.6g}")
    print(f"  attempted {attempted}, failed {failed}, checks {'pass' if correct else 'FAIL'}")
    for line in problems[:20]:
        print(f"  problem: {line}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
