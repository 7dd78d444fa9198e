import json

import numpy as np
import pytest

import eur
from eur.cli import main
from eur.fileio import read_measurement_set, write_density_matrix, write_measurement_set


@pytest.fixture
def mub_triple_file(tmp_path):
    path = tmp_path / "mub2.json"
    write_measurement_set(path, eur.mub_set(2, 3))
    return str(path)


@pytest.fixture
def mub_pair_file(tmp_path):
    path = tmp_path / "pair.json"
    write_measurement_set(path, eur.mub_set(2, 2))
    return str(path)


def bound_lines(output):
    """Parse 'NAME value' rows, skipping comment lines."""
    table = {}
    for line in output.splitlines():
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        table[parts[0]] = float(parts[1])
    return table


class TestGenerate:
    def test_mub(self, tmp_path, capsys):
        out = tmp_path / "set.json"
        assert main(["generate", "--kind", "mub", "--dim", "3", "--out", str(out)]) == 0
        assert "wrote 4 bases (dim 3)" in capsys.readouterr().out
        assert len(read_measurement_set(out)) == 4

    def test_mub_requires_dim(self, tmp_path, capsys):
        assert main(["generate", "--kind", "mub", "--out", str(tmp_path / "x.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_mub_non_prime_dim(self, tmp_path, capsys):
        rc = main(["generate", "--kind", "mub", "--dim", "4", "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "prime" in capsys.readouterr().err

    def test_paper_d3(self, tmp_path):
        out = tmp_path / "d3.json"
        rc = main(
            ["generate", "--kind", "paper-d3", "--a", "0.5", "--phi", "1.5707963", "--out", str(out)]
        )
        assert rc == 0
        bases = read_measurement_set(out)
        assert [b.label for b in bases] == ["B1", "B2", "B3"]

    def test_paper_d3_requires_parameters(self, tmp_path, capsys):
        rc = main(["generate", "--kind", "paper-d3", "--a", "0.5", "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "--phi" in capsys.readouterr().err

    def test_random_default_count(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["generate", "--kind", "random", "--dim", "2", "--out", str(out)]) == 0
        assert len(read_measurement_set(out)) == 3

    def test_random_seeded_reproducibly(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", "--kind", "random", "--dim", "3", "--seed", "9", "--out", str(a)])
        main(["generate", "--kind", "random", "--dim", "3", "--seed", "9", "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestBounds:
    def test_qubit_mub_triple(self, mub_triple_file, capsys):
        assert main(["bounds", "--input", mub_triple_file]) == 0
        table = bound_lines(capsys.readouterr().out)
        assert table["MU_MULTI"] == pytest.approx(1.0, abs=1e-10)
        assert table["SCB_MAX"] == pytest.approx(1.5, abs=1e-10)
        assert table["DEUTSCH_MULTI"] == pytest.approx(0.6853400905091642, abs=1e-10)
        assert table["WEIGHTED"] == pytest.approx(2.0, abs=1e-10)
        assert "STATE_DEPENDENT" not in table

    def test_with_state(self, mub_triple_file, tmp_path, capsys):
        rho_path = tmp_path / "rho.json"
        write_density_matrix(rho_path, eur.DensityMatrix(np.eye(2) / 2))
        assert main(["bounds", "--input", mub_triple_file, "--state", str(rho_path)]) == 0
        table = bound_lines(capsys.readouterr().out)
        assert table["MU_MULTI"] == pytest.approx(3.0, abs=1e-10)
        assert table["STATE_DEPENDENT"] == pytest.approx(3.0, abs=1e-10)

    def test_min_orders_only_deutsch(self, mub_triple_file, capsys):
        assert main(["bounds", "--input", mub_triple_file, "--orders", "min"]) == 0
        table = bound_lines(capsys.readouterr().out)
        assert list(table) == ["DEUTSCH_MULTI"]

    def test_best_order_flag(self, mub_triple_file, capsys):
        assert main(["bounds", "--input", mub_triple_file, "--best-order"]) == 0
        out = capsys.readouterr().out
        assert "order=" in out

    def test_state_dimension_mismatch(self, mub_triple_file, tmp_path, capsys):
        rho_path = tmp_path / "rho3.json"
        write_density_matrix(rho_path, eur.DensityMatrix(np.eye(3) / 3))
        for orders in ("shannon", "min"):
            argv = ["bounds", "--input", mub_triple_file, "--state", str(rho_path), "--orders", orders]
            assert main(argv) == 2
            assert "dimension mismatch" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["bounds", "--input", "/nonexistent/chain.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_single_basis_file(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        write_measurement_set(path, [eur.computational_basis(2)])
        assert main(["bounds", "--input", str(path)]) == 2
        assert "N >= 2" in capsys.readouterr().err


class TestScan:
    def run_scan(self, out_path, extra=()):
        argv = [
            "scan",
            "--family", "paper-d3",
            "--param", "a",
            "--range", "0:1",
            "--steps", "5",
            "--phi", "1.5707963267948966",
            "--out", str(out_path),
        ]
        return main(argv + list(extra))

    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert self.run_scan(out) == 0
        assert "5 rows -> " in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "a,phi,mu_multi,scb_max,deutsch_multi"
        assert len(lines) == 6
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[1] == pytest.approx(np.pi / 2, abs=1e-9)

    def test_order_optimized_column_dominates_scb(self, tmp_path):
        out = tmp_path / "scan.csv"
        self.run_scan(out)
        for line in out.read_text().splitlines()[1:]:
            _, _, mu, scb, _ = (float(x) for x in line.split(","))
            assert mu >= scb - 1e-9

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.run_scan(a)
        self.run_scan(b)
        assert a.read_text() == b.read_text()

    def test_bound_subset(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert self.run_scan(out, ["--bounds", "scb-max"]) == 0
        assert out.read_text().splitlines()[0] == "a,phi,scb_max"

    def test_phi_scan_requires_fixed_a(self, tmp_path, capsys):
        rc = main(
            [
                "scan", "--family", "paper-d3", "--param", "phi",
                "--range", "0:3", "--steps", "3", "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 2
        assert "--a" in capsys.readouterr().err

    def test_unknown_bound_name(self, tmp_path, capsys):
        rc = self.run_scan(tmp_path / "x.csv", ["--bounds", "tightest"])
        assert rc == 2
        assert "unknown bound" in capsys.readouterr().err

    def test_bad_range(self, tmp_path, capsys):
        rc = main(
            [
                "scan", "--family", "paper-d3", "--param", "a",
                "--range", "1..2", "--steps", "3", "--phi", "0", "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 2
        assert "START:STOP" in capsys.readouterr().err


class TestVerify:
    def test_state_mode_certifies(self, mub_pair_file, capsys):
        rc = main(
            [
                "verify", "--input", mub_pair_file, "--mode", "state",
                "--restarts", "8", "--samples", "10",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "CERTIFIED" in out
        assert "objective_min = " in out
        assert "slack MU_MULTI" in out
        assert "spot  MEMORY_MULTI" in out

    def test_min_orders_mode(self, mub_pair_file, capsys):
        rc = main(
            [
                "verify", "--input", mub_pair_file, "--mode", "state",
                "--orders", "min", "--restarts", "8", "--samples", "5",
            ]
        )
        assert rc == 0
        assert "slack DEUTSCH_MULTI" in capsys.readouterr().out

    def test_memory_mode_certifies(self, mub_pair_file, capsys):
        rc = main(
            [
                "verify", "--input", mub_pair_file, "--mode", "memory",
                "--dim-b", "2", "--restarts", "6", "--samples", "5",
            ]
        )
        assert rc == 0
        assert "slack MEMORY_PURE" in capsys.readouterr().out

    def test_bad_restarts(self, mub_pair_file, capsys):
        rc = main(
            ["verify", "--input", mub_pair_file, "--mode", "state", "--restarts", "0"]
        )
        assert rc == 2
        assert "restarts" in capsys.readouterr().err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_family_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "scan", "--family", "other", "--param", "a",
                    "--range", "0:1", "--steps", "2", "--phi", "0",
                    "--out", str(tmp_path / "x.csv"),
                ]
            )
