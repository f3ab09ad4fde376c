"""Tests for the command line front end."""

import csv
import io
import json
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from splineqi import normest
from splineqi.cli import main
from splineqi.nearbest import NearBestProblem
from splineqi.partitions import parse_knot_spec

GOLDEN_REPRO = Path(__file__).parent / "data" / "repro_golden.csv"
GOLDEN_NEARBEST = Path(__file__).parent / "data" / "nearbest_golden.csv"
GOLDEN_BUILD = Path(__file__).parent / "data" / "build_golden.csv"
GOLDEN_BIV = Path(__file__).parent / "data" / "biv_golden.csv"
# every family; the knot families at degrees 2 and 3 on rough clamped spans
# (Q_p2 on geometric spans, the random ones violate its balance condition)
BUILD_SPECS = [
    *(f"--family {f} --m {m} --knots random:12:4" for f in ("s1", "s2", "g1", "g2") for m in (2, 3)),
    *(f"--family qp2 --m 2 --p {p} --knots geometric:12:2" for p in (2, 3)),
    *(f"--family {f} --order {o} --n 2 --spans 8" for f in ("udqi", "uiqi") for o in (4, 6)),
]
# a uniform mesh, a random one and one whose spans vary by a factor up to 1e6
BIV_MESHES = [
    "--mesh uniform --nx 6 --ny 5",
    "--mesh random --nx 7 --ny 4 --seed 3",
    "--mesh random --nx 3 --ny 9 --ratio 1e6",
]
NEARBEST_SPECS = [(2, 3, 2, "cardinal:20"), (3, 2, 3, "random:12:4"), (4, 4, 4, "geometric:14:1.3")]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_golden(got: bytes, path: Path, shown: int = 3):
    """Assert that ``got`` is the golden file's bytes.  On a mismatch the
    message names the first rows that differ and, per numeric column, the
    largest difference in ulps: both are read as CSV, the golden file's first
    row names the columns, and ';' separates the numbers of one cell."""
    want = path.read_bytes()
    if got == want:
        return
    new, old = (list(csv.reader(io.StringIO(b.decode()))) for b in (got, want))
    common = min(len(new), len(old))
    diff = [k for k in range(max(len(new), len(old))) if k >= common or new[k] != old[k]]
    lines = [f"{path.name}: {len(diff)} rows differ ({len(new)} rows against {len(old)})"]
    for k in diff[:shown]:
        lines.append(f"row {k}: {new[k] if k < len(new) else '-'} against {old[k] if k < len(old) else '-'}")
    ulps = {}
    for k in (k for k in diff if k < common):
        for c, cells in enumerate(zip(new[k], old[k])):
            try:
                x, y = (np.array([float(v) for v in cell.split(";")]) for cell in cells)
            except ValueError:  # not numbers
                continue
            if x.shape == y.shape:
                with np.errstate(invalid="ignore"):
                    u = np.where(x == y, 0.0, np.abs(x - y) / np.spacing(np.maximum(np.abs(x), np.abs(y))))
                name = old[0][c] if c < len(old[0]) else f"column {c}"
                ulps[name] = max(ulps.get(name, 0.0), float(np.nan_to_num(u, nan=np.inf).max()))
    lines.append("largest ulps per numeric column: " + ", ".join(f"{n} {u:g}" for n, u in ulps.items() if u))
    pytest.fail("\n".join(lines), pytrace=False)


def test_golden_mismatch_names_rows_and_ulps(tmp_path):
    path = tmp_path / "golden.csv"
    path.write_text("name,weights,nu\na,1;0.5,2\nb,0.25;3,x\n")
    assert_golden(path.read_bytes(), path)
    moved = f"name,weights,nu\na,1;0.5,2\nb,{0.25 + 2**-54!r};3,y\nc,1,1\n".encode()
    with pytest.raises(pytest.fail.Exception) as failed:
        assert_golden(moved, path)
    assert str(failed.value).splitlines() == [
        "golden.csv: 2 rows differ (4 rows against 3)",
        "row 2: ['b', '0.25000000000000006;3', 'y'] against ['b', '0.25;3', 'x']",
        "row 3: ['c', '1', '1'] against -",
        "largest ulps per numeric column: weights 1",
    ]


class TestBuild:
    def test_functional_table_columns(self, capsys):
        code, out, _ = run_cli(capsys, "build", "--family", "s2", "--m", "2", "--knots", "uniform:8")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "family,index,kind,offsets,weights,nu_i"
        assert len(lines) == 1 + 10  # nbasis = 8 + 2

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "build", "--family", "g2", "--m", "3", "--knots", "random:9:7")
        _, out2, _ = run_cli(capsys, "build", "--family", "g2", "--m", "3", "--knots", "random:9:7")
        assert out1 == out2

    def test_seed_flag_feeds_random_knots(self, capsys):
        code, out, _ = run_cli(
            capsys, "--seed", "5", "build", "--family", "s2", "--m", "2", "--knots", "random:8"
        )
        assert code == 0
        code2, out2, _ = run_cli(
            capsys, "--seed", "6", "build", "--family", "s2", "--m", "2", "--knots", "random:8"
        )
        assert out != out2

    def test_uniform_family_build(self, capsys):
        code, out, _ = run_cli(capsys, "build", "--family", "udqi", "--order", "4", "--n", "2")
        assert code == 0
        assert "uniform-NB-dQI" in out

    def test_table_bytes_match_the_golden_file(self, capsys):
        # each row as printed, prefixed by the arguments that built it
        out = io.StringIO()
        golden = csv.writer(out, lineterminator="\n")
        golden.writerow(["args", "family", "index", "kind", "offsets", "weights", "nu_i"])
        for spec in BUILD_SPECS:
            code, text, _ = run_cli(capsys, "build", *spec.split())
            assert code == 0
            for row in csv.reader(io.StringIO(text).readlines()[1:]):
                golden.writerow([spec] + row)
        assert_golden(out.getvalue().encode(), GOLDEN_BUILD)

    def test_seed_accepted_after_subcommand(self, capsys):
        _, out1, _ = run_cli(capsys, "build", "--family", "s2", "--m", "2",
                             "--knots", "random:8", "--seed", "5")
        _, out2, _ = run_cli(capsys, "--seed", "5", "build", "--family", "s2",
                             "--m", "2", "--knots", "random:8")
        assert out1 == out2


class TestNearBest:
    def test_constant_column_on_cardinal_knots(self, capsys):
        code, out, _ = run_cli(
            capsys, "nearbest", "--m", "2", "--p", "3", "--q", "2", "--knots", "cardinal:20"
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        nus = {row.split(",")[2] for row in rows}
        assert len(nus) == 1
        assert float(nus.pop()) == pytest.approx(1 + 1.0 / 18.0, rel=1e-12)
        assert float(rows[-1].split(",")[3]) == pytest.approx(1 + 1.0 / 18.0, rel=1e-12)

    @pytest.mark.parametrize("m, p, q, knots", NEARBEST_SPECS)
    def test_rows_carry_the_solution_diagnostics(self, capsys, m, p, q, knots):
        code, out, _ = run_cli(
            capsys, "nearbest", "--m", str(m), "--p", str(p), "--q", str(q), "--knots", knots
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows and list(rows[0]) == [
            "index", "weights", "nu_i", "max_nu", "residual", "duality_gap"
        ]
        ks = parse_knot_spec(knots, m)
        for row in rows:
            residual, gap, nu = (float(row[k]) for k in ("residual", "duality_gap", "nu_i"))
            assert np.isfinite(residual) and np.isfinite(gap)
            # the acceptance bounds of solve_l1
            rhs = NearBestProblem.from_discrete(ks, int(row["index"]), p, q).rhs
            assert 0.0 <= residual <= 1e-9 * max(np.abs(rhs).max(), 1.0)
            assert 0.0 <= gap <= 1e-9 * max(nu, 1.0)

    def test_solution_bytes_match_the_golden_file(self, capsys):
        # weights, nu_i, residual and duality_gap as printed, one line per index
        out = io.StringIO()
        golden = csv.writer(out, lineterminator="\n")
        golden.writerow(["spec", "index", "weights", "nu_i", "residual", "duality_gap"])
        for m, p, q, knots in NEARBEST_SPECS:
            code, text, _ = run_cli(
                capsys, "nearbest", "--m", str(m), "--p", str(p), "--q", str(q), "--knots", knots
            )
            assert code == 0
            for row in csv.DictReader(io.StringIO(text)):
                golden.writerow(
                    [f"{m}/{p}/{q}/{knots}"]
                    + [row[k] for k in ("index", "weights", "nu_i", "residual", "duality_gap")]
                )
        assert_golden(out.getvalue().encode(), GOLDEN_NEARBEST)

    def test_no_fitting_index_is_an_error(self, capsys):
        code, out, err = run_cli(
            capsys, "nearbest", "--m", "2", "--p", "10", "--q", "2", "--knots", "uniform:5"
        )
        assert code != 0
        assert out == ""
        msg = json.loads(err)["error"]
        assert "21 Greville points (p=10)" in msg
        assert "10 <= i <= -4" in msg and "0..6" in msg


class TestQuad:
    def test_midpoint_rule_weight_sum(self, capsys):
        code, out, _ = run_cli(capsys, "quad", "--family", "s1", "--m", "2", "--knots", "uniform:10")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        nodes = [r.split(",") for r in rows]
        assert nodes[-1][0] == "exactness_degree"
        assert int(nodes[-1][1]) >= 1
        total = sum(float(w) for _, w in nodes[:-1])
        assert total == pytest.approx(1.0, rel=1e-12)


class TestBiv:
    def test_nb4_table(self, capsys):
        code, out, _ = run_cli(capsys, "biv", "--table", "nb4", "--scales", "1", "2")
        assert code == 0
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        assert float(rows[0][4]) == pytest.approx(2.0)
        assert float(rows[1][4]) == pytest.approx(1.25)

    def test_table_bytes_match_the_golden_file(self, capsys):
        # every printed line, headers included, prefixed by the arguments
        out = io.StringIO()
        golden = csv.writer(out, lineterminator="\n")
        for table in ("t2", "g2", "residuals"):
            for spec in BIV_MESHES:
                args = f"--table {table} {spec}"
                code, text, _ = run_cli(capsys, "biv", *args.split())
                assert code == 0
                for row in csv.reader(io.StringIO(text)):
                    golden.writerow([args] + row)
        assert_golden(out.getvalue().encode(), GOLDEN_BIV)

    def test_t2_weight_table_on_mesh_file(self, capsys, tmp_path):
        mesh = tmp_path / "mesh.txt"
        mesh.write_text("0 1 2 3 4\n0 1 2 3\n")
        code, out, _ = run_cli(capsys, "biv", "--table", "t2", "--mesh-file", str(mesh))
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert "nu_ij" in header

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1 2 3 4\n0 1 2 3\n0 1 2\n", "expected one line of x knots and one of y knots"),
            ("0 1 2 3 4\n0 1 2;3\n", "mesh line 2: could not convert string to float: '2;3'"),
        ],
    )
    def test_malformed_mesh_file_is_an_error(self, capsys, tmp_path, text, message):
        mesh = tmp_path / "mesh.txt"
        mesh.write_text(text)
        code, out, err = run_cli(capsys, "biv", "--table", "t2", "--mesh-file", str(mesh))
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": message}

    @pytest.mark.parametrize(
        "table, size, shape", [("t2", ("--nx", "2"), "2 x 8"), ("g2", ("--ny", "1"), "8 x 1")]
    )
    def test_crisscross_table_needs_an_interior_cell(self, capsys, table, size, shape):
        code, out, err = run_cli(capsys, "biv", "--table", table, *size)
        assert code == 2 and out == ""
        msg = json.loads(err.strip())["error"]
        assert msg == f"--table {table} needs 3+ cells per axis, not {shape}"


class TestNorms:
    def test_discrete_norm_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "norms", "--family", "udqi", "--order", "4", "--n", "3", "--samples", "32"
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(1 + 2.0 / 27.0, rel=1e-12)
        assert float(row[3]) == pytest.approx(1.074, abs=0.01)
        assert row[5] == "lower-estimate"

    def test_integral_norm_row(self, capsys):
        # G2 has moment functionals: the coefficient-mode estimate, below the l1 bound
        code, out, _ = run_cli(
            capsys, "norms", "--family", "g2", "--knots", "cardinal:12", "--samples", "16"
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[0] == "G2"
        assert float(row[2]) == pytest.approx(5.0 / 3.0, rel=1e-12)
        assert 1.0 < float(row[3]) <= float(row[2])

    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch):
        # a --samples too large to allocate fails like the other input errors
        def too_large(q, samples_per_span):
            raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)")

        monkeypatch.setattr(normest, "empirical_norm_integral", too_large)
        code, out, err = run_cli(capsys, "norms", "--family", "s2", "--samples", "100000000000")
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "Unable to allocate 745. GiB for an array with shape (100000000000,)"}


class TestRepro:
    def test_section_alias(self, capsys):
        code, out, _ = run_cli(capsys, "repro", "--section", "2.1", "--samples", "32")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "claim,reference,computed,abs_diff,status"
        body = [ln.split(",") for ln in lines[1:]]
        assert all(row[-1] == "pass" for row in body)
        n3 = [row for row in body if row[0] == "uniform-dqi/norm/n=3"]
        assert len(n3) == 1 and abs(float(n3[0][2]) - 1.074) < 0.011

    def test_crisscross_group(self, capsys):
        code, out, _ = run_cli(capsys, "repro", "--section", "5.2")
        assert code == 0
        assert out.count("pass") == 6

    def test_full_pass_reproduces_the_golden_file(self, capsys, tmp_path):
        # a change that moves a cell must regenerate the file and say why
        path = tmp_path / "repro.csv"
        code, out, _ = run_cli(capsys, "repro", "--out", str(path))
        assert code == 0 and out == ""
        assert_golden(path.read_bytes(), GOLDEN_REPRO)

    def test_unknown_section_is_an_error(self, capsys):
        code, out, err = run_cli(capsys, "repro", "--section", "9.9")
        assert code == 2 and out == ""
        assert json.loads(err.strip())["error"].startswith("unknown table key '9.9'; use one of uniform-dqi")

    def test_a_failed_claim_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(normest, "nu_bound", lambda q: 3.0)
        code, out, err = run_cli(capsys, "repro", "--section", "4.1", "--samples", "16")
        assert code == 1
        assert err == "repro: at least one claim failed\n"
        status = {row["claim"]: row["status"] for row in csv.DictReader(io.StringIO(out))}
        assert status == {"s2-uniform/norm": "pass", "s2-uniform/nu-within-2.5": "fail"}

    def test_box_group_passes(self, capsys):
        code, out, _ = run_cli(capsys, "repro", "--section", "3.3")
        assert code == 0
        assert "fail" not in out

    @pytest.mark.filterwarnings("ignore:'splineqi.cli' found in sys.modules:RuntimeWarning")
    def test_module_runs_as_a_script(self, monkeypatch, tmp_path):
        # in process, so that the line tracer of tools/unrun_lines.py sees it
        path = tmp_path / "repro.csv"
        monkeypatch.setattr(sys, "argv", ["splineqi", "repro", "--section", "2.1", "--out", str(path)])
        with pytest.raises(SystemExit) as stop:
            runpy.run_module("splineqi.cli", run_name="__main__")
        assert stop.value.code == 0
        assert path.read_text().startswith("claim,reference,computed,abs_diff,status\n")


class TestPlumbing:
    def test_json_mirror(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, _, _ = run_cli(
            capsys, "--json", str(path), "biv", "--table", "nb3", "--scales", "1"
        )
        assert code == 0
        data = json.loads(path.read_text())
        assert data[0]["s"] == 1
        assert data[0]["nu"] == pytest.approx(2.0)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "--out", str(path), "biv", "--table", "nb4")
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("table,s,center,vertex,nu")

    def test_config_preloads_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("table=nb4\nscales=1\n")
        # config fills option defaults; the required flag still selects the command
        code, out, _ = run_cli(capsys, "--config", str(cfg), "biv", "--table", "nb4")
        assert code == 0
        assert out.splitlines()[1:] == ["nb4,1,1.5,-0.125,2"]

    def test_config_sets_subcommand_options(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# knots for the build\nknots = uniform:4\nm=3\nunknown-key=1\nno pair here\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "build", "--family", "s1")
        assert code == 0
        # 4 spans of degree 3: 7 basis splines
        assert len(out.splitlines()) == 1 + 7

    def test_config_list_option_takes_whitespace_separated_items(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("scales=1 2\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "biv", "--table", "nb4")
        assert code == 0
        assert [row.split(",")[1] for row in out.splitlines()[1:]] == ["1", "2"]

    def test_command_line_flags_beat_the_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("knots=uniform:4\nm=3\nseed=4\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "build", "--family", "s1", "--m", "2")
        assert code == 0 and len(out.splitlines()) == 1 + 6
        # a global flag before the subcommand wins as well
        argv = ["build", "--family", "s2", "--m", "2", "--knots", "random:6"]
        _, with_config, _ = run_cli(capsys, "--config", str(cfg), "--seed", "5", *argv)
        _, plain, _ = run_cli(capsys, "--seed", "5", *argv)
        _, seed_4, _ = run_cli(capsys, "--seed", "4", *argv)
        assert with_config == plain != seed_4

    def test_config_after_the_subcommand(self, capsys, tmp_path):
        # it was applied, then refused as "unrecognized arguments: --config ..."
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("knots=uniform:4\nm=3\n")
        code, out, _ = run_cli(capsys, "build", "--config", str(cfg), "--family", "s1")
        assert code == 0
        assert out == run_cli(capsys, "--config", str(cfg), "build", "--family", "s1")[1]
        assert len(out.splitlines()) == 1 + 7

    @pytest.mark.parametrize(
        "argv",
        [
            ["--config={}", "build", "--family", "s1"],
            ["build", "--family", "s1", "--config={}"],
            ["--conf", "{}", "build", "--family", "s1"],
        ],
        ids=["equals-before", "equals-after", "abbreviated"],
    )
    def test_config_equals_and_abbreviated_forms(self, capsys, tmp_path, argv):
        # each ran without the file: only the literal token "--config" was looked for
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("knots=uniform:4\nm=3\n")
        code, out, _ = run_cli(capsys, *(arg.format(cfg) for arg in argv))
        assert code == 0
        assert out == run_cli(capsys, "--config", str(cfg), "build", "--family", "s1")[1]
        assert len(out.splitlines()) == 1 + 7

    def test_config_needs_a_path(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["biv", "--table", "nb4", "--config"])
        assert exc.value.code == 2
        # argparse's own message, in place of "--config needs a file path"
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == "splineqi biv: error: argument --config: expected one argument"

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "[Errno 2] No such file or directory"),
            ("scales=\n", "invalid --scales value ''"),
            ("mesh=hex\n", "invalid --mesh value 'hex'"),
            ("mesh=Uniform\n", "invalid --mesh value 'Uniform'"),
            # a value that fails its type named no option: "invalid literal for int() with base 10: 'abc'"
            ("scales=1 x\n", "invalid --scales value '1 x'"),
            ("m=abc\n", "invalid --m value 'abc'"),
            ("nx=2.5\n", "invalid --nx value '2.5'"),
            ("ratio=big\n", "invalid --ratio value 'big'"),
        ],
    )
    def test_unreadable_config(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "cfg.txt"
        if text is not None:
            cfg.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "biv", "--table", "nb4"])
        assert exc.value.code == 2
        assert f"cannot read config file: {message}" in capsys.readouterr().err

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["splineqi", "biv", "--table", "nb3", "--scales", "2"])
        assert main() == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("nb3,2,")

    def test_error_is_machine_readable(self, capsys):
        code, out, err = run_cli(capsys, "build", "--family", "qp2", "--m", "3", "--knots", "uniform:8")
        assert code == 2
        assert out == ""
        assert "error" in json.loads(err.strip())

    @pytest.mark.parametrize(
        "argv",
        [
            *(["build", "--family", "s2", "--m", "2", "--knots", spec]
              for spec in ("uniform", "geometric:12", "random", "cardinal", "uniform:-3", "geometric:8:nan")),
            *(["biv", "--table", "t2", "--mesh", "random", "--ratio", r] for r in ("0", "-1", "nan")),
        ],
    )
    def test_malformed_partition_is_one_json_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        line, = err.splitlines()
        assert set(json.loads(line)) == {"error"}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["nearbest", "--m", "2", "--p", "-1", "--q", "-3"], "p must be an integer >= 0, got -1"),
            (["nearbest", "--m", "2", "--p", "-1", "--q", "0"], "p must be an integer >= 0, got -1"),
            (["build", "--family", "s2", "--m", "-1"], "degree must be an integer >= 1, got -1"),
        ],
    )
    def test_negative_sizes_are_one_json_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv, "--knots", "uniform:8")
        assert code == 2
        assert out == ""
        line, = err.splitlines()
        assert json.loads(line) == {"error": message}

    def test_unclamped_inline_knots_are_an_error(self, capsys):
        code, out, err = run_cli(
            capsys, "quad", "--family", "s1", "--m", "2", "--knots", "0 1 2 3 4 5 6 7 8 9 10 11"
        )
        assert code == 2
        assert out == ""
        assert "3 equal knots at each end" in json.loads(err.strip())["error"]

    def test_inline_knots(self, capsys):
        code, out, _ = run_cli(
            capsys, "build", "--family", "s1", "--m", "2",
            "--knots", "0 0 0 0.3 0.7 1 1 1",
        )
        assert code == 0
        # 8 knots at degree 2 give 3 spans, hence 5 basis splines
        assert len(out.strip().splitlines()) == 1 + 5
