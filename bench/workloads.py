"""The three workloads.

A workload is set up once per setup repeat (after a fresh import of
splineqi), then runs whole rounds of the same operations.  ``round`` is the
timed part; it opens one span per operation class, so run.py can read
class rates, and call-level spans around each call into splineqi, which are
kept only when tracing is on.  ``probe`` runs only when tracing is on: it
calls the finer public functions (per-point Lebesgue sums, cold kernel
moments, reproduction checks) on the same inputs, from outside, so that
their cost can be read without spans inside the program.  ``check`` runs
after the timed rounds.
"""

from __future__ import annotations

import numpy as np

import checks
import inputs
from spans import median

PROGRAM_ERRORS = (ValueError, RuntimeError, ArithmeticError, np.linalg.LinAlgError)


class Workload:
    name = ""
    setup_repeats = 9
    min_rounds = 1

    def __init__(self, lib, seed: int, out_dir):
        self.lib = lib
        self.seed = seed
        self.out_dir = out_dir
        self.problems: list[str] = []
        self.failures: list[str] = []

    def counts(self) -> dict[str, int]:
        """Work per round; the same in every round."""
        raise NotImplementedError

    def round(self, r: int, spans) -> tuple[int, int]:
        """Run round r; return (operations attempted, operations failed)."""
        raise NotImplementedError

    def collect(self, r: int) -> None:
        """Untimed bookkeeping after round r."""

    def probe(self, r: int, spans) -> None:
        """Traced runs only: finer calls on the same inputs."""

    def check(self) -> list[str]:
        raise NotImplementedError

    def extra_layers(self, spans, durations) -> dict[str, float]:
        """Per-layer metrics the workload derives itself from its spans."""
        return {}

    def _try(self, spans, label, name, fn, *args, **kwargs):
        """One call into the program; a program error is a failed operation."""
        try:
            return spans.call(name, fn, *args, **kwargs)
        except PROGRAM_ERRORS as exc:
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None


# ---------------------------------------------------------------- paper-tables

class PaperTables(Workload):
    """One full ``repro`` pass through the command line, as a reader runs it."""

    name = "paper-tables"
    min_rounds = 2  # two passes, so that byte-identical output is checked

    def __init__(self, lib, seed, out_dir):
        super().__init__(lib, seed, out_dir)
        self.csv_path = out_dir / f"repro-seed{seed}.csv"
        self.first_csv: bytes | None = None

    def counts(self):
        # the work of one pass, as the repro table defines it
        univariate = 6 * len(inputs.cardinal_grid(50, 64))
        s2 = len(inputs.sample_grid(np.linspace(0.0, 1.0, 51), 64))
        return {
            "quasiinterp.operators": 7,
            "normest.samples": univariate + s2,
            "bivariate.cells": 2 * 16,
        }

    def round(self, r, spans):
        with spans.span("paper-tables.repro"):
            self.rc = spans.call("cli.main", self.lib.cli.main, ["repro", "--out", str(self.csv_path)])
        return 1, 0

    def collect(self, r):
        data = self.csv_path.read_bytes()
        if self.rc != 0:
            self.problems.append(f"repro pass {r}: cli.main returned {self.rc}")
        if self.first_csv is None:
            self.first_csv = data
        elif data != self.first_csv:
            self.problems.append(f"repro pass {r}: CSV differs from the first pass")

    def probe(self, r, spans):
        """The computations of the repro table, called directly."""
        lib = self.lib
        call = spans.call
        with spans.span("paper-tables.direct"):
            for n in (1, 2, 3):
                q = call("quasiinterp.uniform_nb_dqi", lib.quasiinterp.uniform_nb_dqi, 4, n)
                call("normest.nu_bound", lib.normest.nu_bound, q)
                call("normest.empirical_norm_discrete", lib.normest.empirical_norm_discrete, q, samples_per_span=64)
            for n in (1, 2, 3):
                q = call("quasiinterp.uniform_nb_iqi", lib.quasiinterp.uniform_nb_iqi, 4, n)
                call("normest.nu_bound", lib.normest.nu_bound, q)
                call("normest.empirical_norm_integral", lib.normest.empirical_norm_integral, q, samples_per_span=64)
            for s in (1, 2, 3):
                for kind in ("three-direction", "four-direction"):
                    call("bivariate.nb_box_coeffs", lib.bivariate.nb_box_coeffs, kind, s)
            for s in (1, 2, 3):
                call("bivariate.zp_dqi_empirical_norm", lib.bivariate.zp_dqi_empirical_norm, s)
            ks = call("splinecore.KnotSequence", lib.splinecore.KnotSequence.clamped, 2, np.linspace(0.0, 1.0, 51))
            q = call("quasiinterp.s2", lib.quasiinterp.s2, ks)
            call("normest.empirical_norm_discrete", lib.normest.empirical_norm_discrete, q, samples_per_span=64)
            call("normest.nu_bound", lib.normest.nu_bound, q)
            mesh = call("bivariate.TensorMesh", lib.bivariate.TensorMesh.uniform, 6, 6)
            call("bivariate.crisscross_t2", lib.bivariate.crisscross_t2, mesh)
            call("bivariate.crisscross_g2", lib.bivariate.crisscross_g2, mesh)

    def extra_layers(self, spans, durations):
        # the command line's own cost: one pass minus the same computations
        # called directly in the same round
        passes = spans.select("cli.main", durations)
        direct = spans.select("paper-tables.direct", durations)
        diffs = [p - d for p, d in zip(passes, direct)]
        return {"cli.repro_overhead_ms": 1e3 * median(diffs)}

    def check(self):
        if self.first_csv is None:
            return ["no repro pass ran"]
        return self.problems + checks.check_repro(self.first_csv.decode())


# ----------------------------------------------------------------- rough-build

BUILD_SPANS = 40  # spans of each seeded partition
BUILD_DEGREES = (2, 3, 4, 5)
BUILD_FAMILIES = ("schoenberg", "s2", "gs1", "gs2")
QP2_OFFSETS = (2, 3)
LP_DEGREES = (2, 4)  # q = m = 2p: one feasible point per problem (see README)
FIXED_DEGREE = 4  # the kept fault: p = q = 4 on the fixed partition
FIXED_ANCHORS = range(4, 44)
MESH_CELLS = 8
MESHES = 2
POOL = 32  # rounds of distinct seeded inputs; later rounds reuse them


class RoughBuild(Workload):
    """Construction on fresh rough partitions: every univariate family, the
    per-index l1 optima, and the criss-cross families."""

    name = "rough-build"

    def __init__(self, lib, seed, out_dir):
        super().__init__(lib, seed, out_dir)
        rng = np.random.default_rng(seed)
        self.pool = []
        for _ in range(POOL):
            self.pool.append(
                {
                    "rough": {m: inputs.rough_breakpoints(rng, BUILD_SPANS) for m in BUILD_DEGREES},
                    "balanced": inputs.balanced_breakpoints(rng, BUILD_SPANS, QP2_OFFSETS),
                    "meshes": [
                        (inputs.rough_breakpoints(rng, MESH_CELLS), inputs.rough_breakpoints(rng, MESH_CELLS))
                        for _ in range(MESHES)
                    ],
                }
            )
        self.fixed_bp = inputs.fixed_breakpoints()
        # outputs of the first POOL rounds, for the checks
        self.ops: list[list] = []  # per round: (label, operator)
        self.lps: list[list] = []  # per round: (label, fixed, problem, solution or None)
        self.fams: list[list] = []  # per round: (label, family)
        self.digests: list[tuple] = []
        self.lp_failed = 0

    def counts(self):
        nlp = sum(2 * (BUILD_SPANS + m - 2 * (m // 2)) for m in LP_DEGREES) + 2 * len(FIXED_ANCHORS)
        return {
            "quasiinterp.operators": len(BUILD_DEGREES) * len(BUILD_FAMILIES) + len(QP2_OFFSETS),
            "nearbest.problems": nlp,
            "nearbest.failed": self.lp_failed,
            "bivariate.cells": MESHES * 2 * (MESH_CELLS - 2) ** 2,
        }

    def round(self, r, spans):
        lib, call = self.lib, spans.call
        KS = lib.splinecore.KnotSequence
        qi, nb, biv = lib.quasiinterp, lib.nearbest, lib.bivariate
        e = self.pool[r % POOL]
        ops, lps, fams = [], [], []

        with spans.span("rough-build.build"):
            for m in BUILD_DEGREES:
                ks = call("splinecore.KnotSequence", KS.clamped, m, e["rough"][m])
                for fam in BUILD_FAMILIES:
                    label = f"r{r} {fam} m={m}"
                    ops.append((label, self._try(spans, label, f"quasiinterp.{fam}", getattr(qi, fam), ks)))
            ks = call("splinecore.KnotSequence", KS.clamped, 2, e["balanced"])
            for p in QP2_OFFSETS:
                label = f"r{r} Q_p2 p={p}"
                ops.append((label, self._try(spans, label, "quasiinterp.nb_dqi_nonuniform", qi.nb_dqi_nonuniform, ks, p)))

        makers = (("discrete", nb.NearBestProblem.from_discrete), ("integral", nb.NearBestProblem.from_integral))
        with spans.span("rough-build.lp"):
            blocks = []
            for m in LP_DEGREES:
                ks = call("splinecore.KnotSequence", KS.clamped, m, e["rough"][m])
                blocks.append((f"r{r} m={m}", False, m, m // 2, ks, range(m // 2, ks.nbasis - m // 2)))
            ks = call("splinecore.KnotSequence", KS.clamped, FIXED_DEGREE, self.fixed_bp)
            blocks.append(("fixed", True, FIXED_DEGREE, FIXED_DEGREE, ks, FIXED_ANCHORS))
            for tag, fixed, m, p, ks, anchors in blocks:
                for i in anchors:
                    for kind, maker in makers:
                        label = f"{tag} {kind} i={i} p={p} q={m}"
                        prob = self._try(spans, label, "nearbest.assemble", maker, ks, i, p, m)
                        sol = None if prob is None else self._try(spans, label, "nearbest.solve_l1", nb.solve_l1, prob)
                        lps.append((label, fixed, prob, sol))

        with spans.span("rough-build.crisscross"):
            for k, (x, y) in enumerate(e["meshes"]):
                mesh = call("bivariate.TensorMesh", biv.TensorMesh, x, y)
                for tag, fn in (("t2", biv.crisscross_t2), ("g2", biv.crisscross_g2)):
                    label = f"r{r} {tag} mesh {k}"
                    fams.append((label, self._try(spans, label, f"bivariate.crisscross_{tag}", fn, mesh)))

        self._round = (ops, lps, fams)
        self.lp_failed = sum(sol is None for _, _, _, sol in lps)
        failed = sum(q is None for _, q in ops) + self.lp_failed + sum(f is None for _, f in fams)
        return len(ops) + len(lps) + len(fams), failed

    def collect(self, r):
        ops, lps, fams = self._round
        digest = (
            tuple(None if q is None else checks.weight_table(q)[1] for _, q in ops),
            tuple(None if s is None else s.nu for _, _, _, s in lps),
            tuple(None if f is None else float(np.nansum(f.a) + np.nansum(f.c)) for _, f in fams),
        )
        self.digests.append(digest)
        if r < POOL:
            self.ops.append(ops)
            self.lps.append(lps)
            self.fams.append(fams)
        elif digest != self.digests[r % POOL]:
            self.problems.append(f"round {r}: outputs differ from round {r % POOL} on the same inputs")

    def probe(self, r, spans):
        lib, call = self.lib, spans.call
        ops, _, fams = self._round
        for _, q in ops:
            call("functionals.is_exact_on", lib.functionals.is_exact_on, q, q.degree_exact)
        for _, fam in fams:
            call("bivariate.is_exact_pi2", fam.is_exact_pi2)
        # kernel moments on fresh sequences, so every call misses the cache
        KS = lib.splinecore.KnotSequence
        for m, bp in self.pool[r % POOL]["rough"].items():
            ks = call("splinecore.KnotSequence", KS.clamped, m, bp)
            for i in range(1, ks.nbasis - 1):
                for k in range(1, m + 1):
                    call("splinecore.dual_moment", ks.dual_moment, i, k)
            for i in range(ks.nbasis):
                for k in range(1, m + 1):
                    call("splinecore.basis_moment", ks.basis_moment, i, k)

    def check(self):
        out = list(self.problems)
        normest = self.lib.normest
        for r, ops in enumerate(self.ops):
            rng = np.random.default_rng([self.seed, r])
            for label, q in ops:
                if q is None:
                    continue
                f = checks.random_poly(rng, q.degree_exact)
                xs = rng.uniform(0.0, 1.0, 64)
                out += checks.check_reproduction(q, q.coefficients(f), f, xs, label)
                out += checks.check_nu(q, normest.nu_bound(q), label)
        fixed_nu = {}
        for r, lps in enumerate(self.lps):
            for label, fixed, prob, sol in lps:
                nu = None if sol is None else sol.nu
                if fixed and r > 0:
                    # the same inputs every round: the outcome must repeat
                    if nu != fixed_nu[label]:
                        out.append(f"round {r} {label}: outcome differs from round 0")
                    continue
                if prob is None:
                    out.append(f"{label}: assembly failed")
                    continue
                A, b = prob.matrix, prob.rhs
                if fixed:
                    fixed_nu[label] = nu
                    ref, slack = checks.lp_optimum(A, b), 0.0
                    if sol is None:
                        # a kept failure must be a problem that has an optimum
                        if ref is None:
                            out.append(f"{label}: failed, and HiGHS finds no optimum either")
                        continue
                elif sol is None:
                    out.append(f"{label}: failed on a seeded input")
                    continue
                else:
                    ref, slack = checks.square_optimum(A, b, sol.weights)
                out += checks.check_lp(A, b, sol.weights, sol.nu, ref, label, slack)
        for fams in self.fams:
            for label, fam in fams:
                if fam is not None:
                    out += checks.check_crisscross(fam, label)
        return out


# ----------------------------------------------------------------- rough-norms

NORM_SPANS = 20
NORM_DEGREES = (2, 3, 4, 5)
SAMPLES = 32  # grid samples per span of the discrete and coefficient-mode norms
KERNEL_SAMPLES = 16  # the smallest grid the program allows
KERNEL_SPANS = 4  # small G2 operators for the kernel mode
KERNEL_DEGREES = (2, 3)
IQI_HALF_WIDTHS = (1, 2, 3)
IQI_SPANS = 4
EVAL_POINTS = 1000


class RoughNorms(Workload):
    """Application of operators built during set-up on rough partitions:
    empirical norms, evaluation and quadrature.  No construction, no LP."""

    name = "rough-norms"

    def __init__(self, lib, seed, out_dir):
        super().__init__(lib, seed, out_dir)
        rng = np.random.default_rng(seed)
        KS = lib.splinecore.KnotSequence
        qi = lib.quasiinterp
        self.discrete, self.integral, self.kernel, self.evals, self.quad = [], [], [], [], []
        self.sequences = []
        for m in NORM_DEGREES:
            bp = inputs.rough_breakpoints(rng, NORM_SPANS)
            ks = KS.clamped(m, bp)
            grid = inputs.sample_grid(bp, SAMPLES)
            self.sequences.append((ks, grid))
            s1, s2, g1, g2 = qi.schoenberg(ks), qi.s2(ks), qi.gs1(ks), qi.gs2(ks)
            self.discrete += [(f"S1 m={m}", s1, grid), (f"S2 m={m}", s2, grid)]
            self.integral += [(f"G1 m={m}", g1, grid), (f"G2 m={m}", g2, grid)]
            for label, q in ((f"S2 m={m}", s2), (f"G2 m={m}", g2)):
                f = checks.random_poly(rng, q.degree_exact)
                self.evals.append((label, q, f, rng.uniform(0.0, 1.0, EVAL_POINTS)))
            self.quad += [(f"S1 m={m}", s1), (f"S2 m={m}", s2)]
        bp = inputs.balanced_breakpoints(rng, NORM_SPANS, (2,))
        self.quad.append(("Q_p2 p=2", qi.nb_dqi_nonuniform(KS.clamped(2, bp), 2)))
        for m in KERNEL_DEGREES:
            bp = inputs.rough_breakpoints(rng, KERNEL_SPANS)
            self.kernel.append((f"G2 m={m} small", qi.gs2(KS.clamped(m, bp)), inputs.sample_grid(bp, KERNEL_SAMPLES)))
        for n in IQI_HALF_WIDTHS:
            q = qi.uniform_nb_iqi(4, n, nspans=IQI_SPANS)
            self.kernel.append((f"uniform-NB-iQI n={n}", q, inputs.cardinal_grid(IQI_SPANS, KERNEL_SAMPLES)))
        self.first: dict | None = None

    def counts(self):
        leb = sum(len(g) for _, _, g in self.discrete + self.integral)
        ker = sum(len(g) for _, _, g in self.kernel)
        return {
            "normest.samples": leb + ker,
            "normest.lebesgue_samples": leb,
            "normest.kernel_samples": ker,
            "functionals.points": EVAL_POINTS * len(self.evals),
            "quadrature.rules": len(self.quad),
        }

    def round(self, r, spans):
        ne, quad = self.lib.normest, self.lib.quadrature
        out = {}
        with spans.span("rough-norms.lebesgue"):
            for label, q, _ in self.discrete:
                out[label] = self._try(spans, label, "normest.empirical_norm_discrete", ne.empirical_norm_discrete, q, SAMPLES, polish=False)
            for label, q, _ in self.integral:
                out[label] = self._try(spans, label, "normest.empirical_norm_integral", ne.empirical_norm_integral, q, SAMPLES, polish=False)
        with spans.span("rough-norms.kernel"):
            for label, q, _ in self.kernel:
                out["kernel " + label] = self._try(
                    spans, label, "normest.empirical_norm_integral_kernel", ne.empirical_norm_integral, q, KERNEL_SAMPLES, polish=False, mode="kernel"
                )
        with spans.span("rough-norms.evaluate"):
            for label, q, f, xs in self.evals:
                out["eval " + label] = self._try(spans, label, "functionals.evaluate", q.evaluate, f, xs)
        with spans.span("rough-norms.quadrature"):
            for label, q in self.quad:
                rule = self._try(spans, label, "quadrature.qi_to_quadrature", quad.qi_to_quadrature, q)
                degree = None if rule is None else self._try(spans, label, "quadrature.exactness_degree", quad.exactness_degree, rule, q.ks.m)
                out["quad " + label] = None if degree is None else (rule, degree)
        self._out = out
        return len(out), sum(v is None for v in out.values())

    def collect(self, r):
        if self.first is None:
            self.first = self._out
            return
        for key, val in self._out.items():
            ref = self.first[key]
            if val is None or ref is None:
                same = val is ref
            elif key.startswith("quad "):
                same = val[1] == ref[1] and np.array_equal(val[0].weights, ref[0].weights)
            else:
                same = np.array_equal(val, ref)
            if not same:
                self.problems.append(f"round {r} {key}: differs from round 0 on the same inputs")

    def probe(self, r, spans):
        lib, call = self.lib, spans.call
        ne = lib.normest
        for ks, grid in self.sequences:
            for x in grid[::4]:
                call("splinecore.basis_row", ks.basis_row, float(x))
        for _, q, grid in self.discrete:
            for x in grid[::4]:
                call("normest.lebesgue_function", ne.lebesgue_function, q, float(x))
        for _, q, grid in self.integral:
            for x in grid[::4]:
                call("normest.integral_lebesgue_function", ne.integral_lebesgue_function, q, float(x))
        for _, q, grid in self.kernel:
            for x in grid[::4]:
                call("normest.integral_lebesgue_function_kernel", ne.integral_lebesgue_function, q, float(x), "kernel", 8)
        for _, q, f, _ in self.evals:
            call("functionals.coefficients", q.coefficients, f)

    def check(self):
        if self.first is None:
            return ["no round ran"]
        out = list(self.problems)
        res = self.first  # a failed operation (None) is counted, not checked
        for label, q, grid in self.discrete + self.integral:
            if res[label] is not None:
                out += checks.check_norm_value(q, res[label], grid, label)
        for label, q, _ in self.kernel:
            if res["kernel " + label] is not None:
                coef = self.lib.normest.empirical_norm_integral(q, KERNEL_SAMPLES, polish=False)
                out += checks.check_kernel_norm(q, res["kernel " + label], coef, label)
        for label, q, f, xs in self.evals:
            if res["eval " + label] is not None:
                out += checks.check_evaluate(q, res["eval " + label], q.coefficients(f), f, xs, label)
        for label, q in self.quad:
            if res["quad " + label] is not None:
                rule, verified = res["quad " + label]
                out += checks.check_quadrature(rule.nodes, rule.weights, rule.domain, q.degree_exact, verified, label)
        return out


WORKLOADS = {w.name: w for w in (PaperTables, RoughBuild, RoughNorms)}
