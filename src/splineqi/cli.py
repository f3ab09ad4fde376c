"""Command line front end.

Subcommands: ``build`` (functional tables), ``nearbest`` (per-index l1
optima), ``norms`` (bounds and empirical estimates), ``biv`` (bivariate
weight tables), ``quad`` (quadrature rules), ``repro`` (regenerate the
reference value tables and check them).  All numeric output is CSV with
17 significant digits; identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import bivariate, normest, quadrature
from .nearbest import NearBestProblem, solve_l1
from .partitions import parse_knot_spec, random_mesh
from .quasiinterp import (
    _stencil_bounds,
    gs1,
    gs2,
    nb_dqi_nonuniform,
    s2,
    schoenberg,
    uniform_nb_dqi,
    uniform_nb_iqi,
)
from .splinecore import KnotSequence

_FAMILIES = ("s1", "s2", "g1", "g2", "qp2", "udqi", "uiqi")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _emit(rows: list[dict], out_path: str | None, json_path: str | None) -> None:
    header = list(rows[0].keys())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(row[k]) for k in header])
    text = buf.getvalue()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(rows, fh, indent=1, sort_keys=True)
            fh.write("\n")


def _build_family(args):
    name = args.family
    if name in ("udqi", "uiqi"):
        maker = uniform_nb_dqi if name == "udqi" else uniform_nb_iqi
        return maker(args.order, args.n, args.r, nspans=args.spans)
    ks = parse_knot_spec(args.knots, args.m, seed=args.seed)
    if name == "qp2":
        return nb_dqi_nonuniform(ks, args.p)
    return {"s1": schoenberg, "s2": s2, "g1": gs1, "g2": gs2}[name](ks)


def cmd_build(args):
    q = _build_family(args)
    rows = []
    for i, nu in enumerate(q.row_norms.tolist()):
        offsets, weights = [], []
        for band in q.bands:  # the stored entries: the point band's, then the kernel band's
            nz = np.flatnonzero(band.weights[i])
            offsets += (nz + band.lo).tolist()
            weights += band.weights[i, nz].tolist()
        rows.append(
            {
                "family": q.family,
                "index": i,
                "kind": q.kind,
                "offsets": ";".join(map(str, offsets)),
                "weights": ";".join(map(_fmt, weights)),
                "nu_i": nu,
            }
        )
    _emit(rows, args.out, args.json)
    return 0


def cmd_nearbest(args):
    ks = parse_knot_spec(args.knots, args.m, seed=args.seed)
    glo, ghi = _stencil_bounds(ks)
    rows = []
    worst = 0.0
    for i in ks.basis_indices:
        if i - args.p < glo or i + args.p > ghi:
            continue
        sol = solve_l1(NearBestProblem.from_discrete(ks, i, args.p, args.q))
        worst = max(worst, sol.nu)
        rows.append(
            {
                "index": i,
                "weights": ";".join(_fmt(float(w)) for w in sol.weights),
                "nu_i": sol.nu,
                "max_nu": "",
                "residual": sol.residual,
                "duality_gap": sol.duality_gap,
            }
        )
    if not rows:
        raise ValueError(
            f"no index fits the stencil of {2 * args.p + 1} Greville points (p={args.p}): "
            f"an anchor i needs {glo + args.p} <= i <= {ghi - args.p}, "
            f"but the Greville indices run {glo}..{ghi}"
        )
    rows[-1]["max_nu"] = worst
    _emit(rows, args.out, args.json)
    return 0


def cmd_norms(args):
    q = _build_family(args)
    rows = [
        {
            "family": q.family,
            "params": ";".join(str(p) for p in q.params),
            "nu_bound": normest.nu_bound(q),
            "empirical": normest.empirical_norm_integral(q, samples_per_span=args.samples),
            "samples_per_span": args.samples,
            "estimate_kind": "lower-estimate",
        }
    ]
    _emit(rows, args.out, args.json)
    return 0


def _load_mesh(args) -> bivariate.TensorMesh:
    if args.mesh_file:
        with open(args.mesh_file) as fh:
            return bivariate.TensorMesh.from_text(fh.read())
    if args.mesh == "uniform":
        return bivariate.TensorMesh.uniform(args.nx, args.ny)
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    return random_mesh(args.nx, args.ny, rng, ratio=args.ratio)


def cmd_biv(args):
    rows = []
    if args.table in ("nb3", "nb4"):
        kind = "three-direction" if args.table == "nb3" else "four-direction"
        for s in args.scales:
            center, vertex, nu = bivariate.nb_box_coeffs(kind, s)
            rows.append(
                {"table": args.table, "s": s, "center": center, "vertex": vertex, "nu": nu}
            )
    elif args.table in ("t2", "g2"):
        mesh = _load_mesh(args)
        if min(mesh.ncx, mesh.ncy) < 3:  # no interior cell, so no row
            raise ValueError(f"--table {args.table} needs 3+ cells per axis, not {mesh.ncx} x {mesh.ncy}")
        fam = bivariate.crisscross_t2(mesh) if args.table == "t2" else bivariate.crisscross_g2(mesh)
        a, abar, centre, c, cbar = fam.stencils()
        for (i, j), nu in np.ndenumerate(fam.nu()):  # entry [i, j] is cell (i + 1, j + 1)
            rows.append(
                {
                    "table": args.table,
                    "i": i + 1,
                    "j": j + 1,
                    "a": a[i, j],
                    "abar": abar[i, j],
                    "c": c[i, j],
                    "cbar": cbar[i, j],
                    "center": centre[i, j],
                    "nu_ij": nu,
                }
            )
    else:  # residuals
        mesh = _load_mesh(args)
        for tag in ("S1", "T1", "G1"):
            res = bivariate.monomial_residuals(tag, mesh)
            for i in range(mesh.ncx):
                for j in range(mesh.ncy):
                    rows.append(
                        {
                            "table": tag,
                            "i": i,
                            "j": j,
                            "res_e20": res["e20"][i, j],
                            "res_e02": res["e02"][i, j],
                        }
                    )
    _emit(rows, args.out, args.json)
    return 0


def cmd_quad(args):
    q = _build_family(args)
    rule = quadrature.qi_to_quadrature(q)
    verified = quadrature.exactness_degree(rule, max_degree=q.ks.m)
    rows = [
        {"node": float(n), "weight": float(w)} for n, w in zip(rule.nodes, rule.weights)
    ]
    rows.append({"node": "exactness_degree", "weight": verified})
    _emit(rows, args.out, args.json)
    return 0


# --------------------------------------------------------------------- repro

_SECTION_ALIASES = {
    "2.1": "uniform-dqi",
    "2.2": "uniform-iqi",
    "3.2": "box-dqi",
    "3.3": "box-dqi",
    "4.1": "s2-uniform",
    "5.2": "crisscross-uniform",
}
_REPRO_GROUPS = tuple(dict.fromkeys(_SECTION_ALIASES.values()))


def _repro_rows(section: str | None, samples: int) -> list[dict]:
    groups = set(_REPRO_GROUPS)
    if section:
        key = _SECTION_ALIASES.get(section, section)
        if key not in groups:
            raise ValueError(
                f"unknown table key {section!r}; use one of "
                f"{', '.join(_REPRO_GROUPS)} or an alias {', '.join(sorted(_SECTION_ALIASES))}"
            )
        groups = {key}
    checks = []  # (claim, reference, computed, tol, kind)

    if "uniform-dqi" in groups:
        for n, ref_nu, ref_emp in ((1, 1.666, 1.222), (2, 1.166, 1.139), (3, 1.074, 1.074)):
            q = uniform_nb_dqi(4, n)
            checks.append((f"uniform-dqi/nu/n={n}", ref_nu, normest.nu_bound(q), 1e-3, "eq"))
            emp = normest.empirical_norm_discrete(q, samples_per_span=samples)
            checks.append((f"uniform-dqi/norm/n={n}", ref_emp, emp, 0.011, "eq"))
    if "uniform-iqi" in groups:
        for n, ref_nu, ref_emp in ((1, 2.333, 1.5278), (2, 1.333, 1.2778), (3, 1.1482, 1.1481)):
            q = uniform_nb_iqi(4, n)
            checks.append((f"uniform-iqi/nu/n={n}", ref_nu, normest.nu_bound(q), 1e-3, "eq"))
            emp = normest.empirical_norm_integral(q, samples_per_span=samples)
            checks.append((f"uniform-iqi/norm/n={n}", ref_emp, emp, 0.011, "eq"))
    if "box-dqi" in groups:
        for s, ref in ((1, 2.0), (2, 1.25), (3, 1.111)):
            for kind, tag in (("three-direction", "nb3"), ("four-direction", "nb4")):
                _, _, nu = bivariate.nb_box_coeffs(kind, s)
                checks.append((f"box-dqi/{tag}/nu/s={s}", ref, nu, 1e-3, "eq"))
        for s, ref in ((1, 1.5), (2, 1.25), (3, 1.111)):
            emp = bivariate.zp_dqi_empirical_norm(s)
            checks.append((f"box-dqi/nb4/norm/s={s}", ref, emp, 0.011, "eq"))
    if "s2-uniform" in groups:
        q = s2(KnotSequence.clamped(2, np.linspace(0.0, 1.0, 51)))
        emp = normest.empirical_norm_discrete(q, samples_per_span=samples)
        checks.append(("s2-uniform/norm", 305.0 / 207.0, emp, 0.0055, "eq"))
        checks.append(("s2-uniform/nu-within-2.5", 2.5, normest.nu_bound(q), 1e-12, "le"))
    if "crisscross-uniform" in groups:
        mesh = bivariate.TensorMesh.uniform(6, 6)
        t2, g2 = bivariate.crisscross_t2(mesh), bivariate.crisscross_g2(mesh)
        # cell (3, 3): entry [2, 2] of the interior-cell arrays
        checks.append(("crisscross/t2/a", -3.0 / 20.0, float(t2.a[3]), 1e-12, "eq"))
        checks.append(("crisscross/t2/center", 8.0 / 5.0, float(t2.stencils()[2][2, 2]), 1e-12, "eq"))
        checks.append(("crisscross/t2/nu", 11.0 / 5.0, float(t2.nu()[2, 2]), 1e-12, "eq"))
        checks.append(("crisscross/g2/a", -1.0 / 6.0, float(g2.a[3]), 1e-12, "eq"))
        checks.append(("crisscross/g2/center", 5.0 / 3.0, float(g2.stencils()[2][2, 2]), 1e-12, "eq"))
        checks.append(("crisscross/g2/nu", 7.0 / 3.0, float(g2.nu()[2, 2]), 1e-12, "eq"))

    rows = []
    for claim, ref, got, tol, kind in checks:
        diff = max(0.0, got - ref) if kind == "le" else abs(got - ref)
        rows.append(
            {
                "claim": claim,
                "reference": ref,
                "computed": got,
                "abs_diff": diff,
                "status": "pass" if diff <= tol else "fail",
            }
        )
    return rows


def cmd_repro(args):
    rows = _repro_rows(args.section, args.samples)
    _emit(rows, args.out, args.json)
    if any(r["status"] == "fail" for r in rows):
        print("repro: at least one claim failed", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------- main

def _apply_config(parsers, path: str):
    """``key=value`` lines (``#`` comments) become the defaults of the options
    of that name on every parser, converted and checked as on the command
    line: by the option's type and choices, a list option's value split at
    whitespace, and a value that fails either names its option.  The SUPPRESS
    copies of the globals are skipped, so a global flag before the subcommand wins."""
    with open(path) as fh:
        pairs = [ln.split("=", 1) for ln in map(str.strip, fh) if "=" in ln and ln[0] != "#"]
    defaults = {key.strip().replace("-", "_"): val.strip() for key, val in pairs}
    for parser in parsers:
        for action in parser._actions:
            val = defaults.get(action.dest)
            if val is None or not action.option_strings or action.default is argparse.SUPPRESS:
                continue
            try:
                items = [(action.type or str)(item) for item in (val.split() if action.nargs else [val])]
            except ValueError:
                items = []
            if not items or (action.choices and not set(items) <= set(action.choices)):
                raise ValueError(f"invalid {action.option_strings[0]} value {val!r}")
            parser.set_defaults(**{action.dest: items if action.nargs else items[0]})


def _add_family_args(sp):
    sp.add_argument("--family", required=True, choices=_FAMILIES)
    sp.add_argument("--m", type=int, default=2, help="spline degree for knot-based families")
    sp.add_argument("--knots", default="uniform:16")
    sp.add_argument("--p", type=int, default=2, help="stencil offset for qp2")
    sp.add_argument("--order", type=int, default=4, help="even order for udqi/uiqi")
    sp.add_argument("--n", type=int, default=2, help="stencil half-width for udqi/uiqi")
    sp.add_argument("--r", type=int, default=None, help="reproduction degree for udqi/uiqi")
    sp.add_argument("--spans", type=int, default=50, help="emulation spans for udqi/uiqi")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="splineqi", description=__doc__)
    parser.add_argument("--config", help="key=value file preloading option defaults")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", help="write CSV here instead of stdout")
    parser.add_argument("--json", help="also write a JSON mirror to this path")

    # the global options are also accepted after the subcommand; SUPPRESS
    # keeps the subparser from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    common.add_argument("--json", default=argparse.SUPPRESS)

    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("build", help="emit a family's functional table", parents=[common])
    _add_family_args(sp)
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser(
        "nearbest", help="solve the per-index l1 minimizations", parents=[common]
    )
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--knots", required=True)
    sp.set_defaults(func=cmd_nearbest)

    sp = sub.add_parser("norms", help="nu bound and empirical norm estimate", parents=[common])
    _add_family_args(sp)
    sp.add_argument("--samples", type=int, default=64)
    sp.set_defaults(func=cmd_norms)

    sp = sub.add_parser("biv", help="bivariate weight tables", parents=[common])
    sp.add_argument("--table", required=True, choices=("nb3", "nb4", "t2", "g2", "residuals"))
    sp.add_argument("--scales", type=int, nargs="+", default=[1, 2, 3])
    sp.add_argument("--mesh", default="uniform", choices=("uniform", "random"))
    sp.add_argument("--mesh-file")
    sp.add_argument("--nx", type=int, default=8)
    sp.add_argument("--ny", type=int, default=8)
    sp.add_argument("--ratio", type=float, default=1e3)
    sp.set_defaults(func=cmd_biv)

    sp = sub.add_parser("quad", help="quadrature rule from a discrete family", parents=[common])
    _add_family_args(sp)
    sp.set_defaults(func=cmd_quad)

    sp = sub.add_parser(
        "repro", help="regenerate and verify the reference tables", parents=[common]
    )
    sp.add_argument("--section", help="restrict to one table key (e.g. 2.1 or uniform-dqi)")
    sp.add_argument("--samples", type=int, default=64)
    sp.set_defaults(func=cmd_repro)

    args = parser.parse_args(argv)
    if args.config is not None:  # the file's values become defaults; parse again
        try:
            _apply_config([parser, *sub.choices.values()], args.config)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read config file: {exc}")
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
