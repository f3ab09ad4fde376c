"""Tests for the command line front end."""

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from splineqi.cli import main
from splineqi.nearbest import NearBestProblem
from splineqi.partitions import parse_knot_spec

GOLDEN_REPRO = Path(__file__).parent / "data" / "repro_golden.csv"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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

    @pytest.mark.parametrize(
        "m, p, q, knots", [(2, 3, 2, "cardinal:20"), (3, 2, 3, "random:12:4"), (4, 4, 4, "geometric:14:1.3")]
    )
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

    def test_t2_weight_table_on_mesh_file(self, capsys, tmp_path):
        mesh = tmp_path / "mesh.txt"
        mesh.write_text("0 1 2 3 4\n0 1 2 3\n")
        code, out, _ = run_cli(capsys, "biv", "--table", "t2", "--mesh-file", str(mesh))
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert "nu_ij" in header


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
        assert path.read_bytes() == GOLDEN_REPRO.read_bytes()

    def test_box_group_passes(self, capsys):
        code, out, _ = run_cli(capsys, "repro", "--section", "3.3")
        assert code == 0
        assert "fail" not in out


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

    def test_error_is_machine_readable(self, capsys):
        code, out, err = run_cli(capsys, "build", "--family", "qp2", "--m", "3", "--knots", "uniform:8")
        assert code == 2
        assert out == ""
        assert "error" in json.loads(err.strip())

    def test_inline_knots(self, capsys):
        code, out, _ = run_cli(
            capsys, "build", "--family", "s1", "--m", "2",
            "--knots", "0 0 0 0.3 0.7 1 1 1",
        )
        assert code == 0
        # 8 knots at degree 2 give 3 spans, hence 5 basis splines
        assert len(out.strip().splitlines()) == 1 + 5
