import argparse
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import eur
from eur import cli, verifier
from eur.cli import main
from eur.fileio import read_measurement_set, write_density_matrix, write_measurement_set
from helpers import MALFORMED_FILES, SCAN_ORACLE, loop_scan_rows, scan_csv, tilted_qubit_chain_and_state, write_malformed


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


# (dim, count) of a mub_set file, verify arguments, stdout lines.  "state" and "memory" are the
# benchmark's two calls; the others pin a WEIGHTED slack, a DEUTSCH_MULTI slack, a d_B = 3 memory
# run and a d_B < d_A memory run, the one memory case here that searches.
GOLDEN_VERIFY = {
    "state": ((3, None), ["--mode", "state", "--seed", "1"], [
        "objective_min = 4",
        "converged restarts: 64/64",
        "slack MU_MULTI         2.415e+00",
        "slack SCB_MAX          8.301e-01",
        "slack STATE_DEPENDENT  2.415e+00",
        "spot  DEUTSCH_MULTI    1.111e+00",
        "spot  MU_MULTI         1.776e-15",
        "spot  STATE_DEPENDENT  0.000e+00",
        "spot  SCB_MAX          8.882e-16",
        "spot  MU_TWO           0.000e+00",
        "spot  MEMORY_MULTI     3.553e-15",
        "spot  MEMORY_PURE      2.220e-15",
        "spot  BERTA_TWO        2.220e-16",
        "CERTIFIED",
    ]),
    "memory": ((2, None), ["--mode", "memory", "--dim-b", "2", "--restarts", "16", "--seed", "1"], [
        "objective_min = 4.4408920985e-16",
        "converged restarts: 1/1",
        "slack MEMORY_MULTI     2.850e-01",
        "slack MEMORY_PURE      -5.551e-16",
        "spot  DEUTSCH_MULTI    3.432e-01",
        "spot  MU_MULTI         -8.882e-16",
        "spot  STATE_DEPENDENT  0.000e+00",
        "spot  SCB_MAX          -4.441e-16",
        "spot  MU_TWO           0.000e+00",
        "spot  WEIGHTED         0.000e+00",
        "spot  MEMORY_MULTI     -8.882e-16",
        "spot  MEMORY_PURE      -5.551e-16",
        "spot  BERTA_TWO        -3.331e-16",
        "CERTIFIED",
    ]),
    "state-weighted": ((2, None), ["--mode", "state", "--restarts", "16", "--seed", "1"], [
        "objective_min = 2",
        "converged restarts: 16/16",
        "slack MU_MULTI         1.000e+00",
        "slack SCB_MAX          5.000e-01",
        "slack STATE_DEPENDENT  1.000e+00",
        "slack WEIGHTED         -8.882e-16",
        "spot  DEUTSCH_MULTI    3.432e-01",
        "spot  MU_MULTI         -8.882e-16",
        "spot  STATE_DEPENDENT  0.000e+00",
        "spot  SCB_MAX          -4.441e-16",
        "spot  MU_TWO           0.000e+00",
        "spot  WEIGHTED         0.000e+00",
        "spot  MEMORY_MULTI     -8.882e-16",
        "spot  MEMORY_PURE      -5.551e-16",
        "spot  BERTA_TWO        -3.331e-16",
        "CERTIFIED",
    ]),
    "state-min": ((3, None), ["--mode", "state", "--orders", "min", "--restarts", "16", "--seed", "1"], [
        "objective_min = 2.45374709537",
        "converged restarts: 16/16",
        "slack DEUTSCH_MULTI    1.084e+00",
        "spot  DEUTSCH_MULTI    1.111e+00",
        "spot  MU_MULTI         1.776e-15",
        "spot  STATE_DEPENDENT  0.000e+00",
        "spot  SCB_MAX          8.882e-16",
        "spot  MU_TWO           0.000e+00",
        "spot  MEMORY_MULTI     3.553e-15",
        "spot  MEMORY_PURE      2.220e-15",
        "spot  BERTA_TWO        2.220e-16",
        "CERTIFIED",
    ]),
    "memory-dim-b-3": ((2, 2), ["--mode", "memory", "--dim-b", "3", "--restarts", "8", "--seed", "1"], [
        "objective_min = 2.22044604925e-16",
        "converged restarts: 1/1",
        "slack MEMORY_MULTI     -3.331e-16",
        "slack MEMORY_PURE      -3.331e-16",
        "spot  DEUTSCH_MULTI    1.396e-03",
        "spot  MU_MULTI         0.000e+00",
        "spot  STATE_DEPENDENT  2.220e-16",
        "spot  SCB_MAX          0.000e+00",
        "spot  MU_TWO           0.000e+00",
        "spot  MEMORY_MULTI     -3.331e-16",
        "spot  MEMORY_PURE      -3.331e-16",
        "spot  BERTA_TWO        -3.331e-16",
        "CERTIFIED",
    ]),
    "memory-searched": ((3, None), ["--mode", "memory", "--dim-b", "2", "--restarts", "8", "--seed", "1"], [
        "objective_min = 1.75488750216",
        "converged restarts: 8/8",
        "slack MEMORY_MULTI     8.965e-01",
        "slack MEMORY_PURE      1.170e+00",
        "spot  DEUTSCH_MULTI    1.111e+00",
        "spot  MU_MULTI         1.776e-15",
        "spot  STATE_DEPENDENT  0.000e+00",
        "spot  SCB_MAX          8.882e-16",
        "spot  MU_TWO           0.000e+00",
        "spot  MEMORY_MULTI     3.553e-15",
        "spot  MEMORY_PURE      2.220e-15",
        "spot  BERTA_TWO        2.220e-16",
        "CERTIFIED",
    ]),
}


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

    def test_random_rejects_nonpositive_dim(self, tmp_path, capsys):
        rc = main(["generate", "--kind", "random", "--dim", "0", "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "dimension must be positive, got 0" in capsys.readouterr().err

    def test_random_rejects_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        rc = main(["generate", "--kind", "random", "--dim", "3", "--seed", "-3", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: --seed must be non-negative, got -3\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--kind", "paper-d3", "--a", "0.5", "--phi", "0", "--dim", "7"], "--dim applies to --kind mub or random only"),
            (["--kind", "paper-d3", "--a", "0.5", "--phi", "0", "--count", "9"],
             "--count applies to --kind mub or random only"),
            (["--kind", "paper-d3", "--a", "0.5", "--phi", "0", "--seed", "3"], "--seed applies to --kind random only"),
            (["--kind", "mub", "--dim", "3", "--seed", "0"], "--seed applies to --kind random only"),
            (["--kind", "mub", "--dim", "3", "--a", "0.5"], "--a applies to --kind paper-d3 only"),
            (["--kind", "random", "--dim", "3", "--phi", "0"], "--phi applies to --kind paper-d3 only"),
            (["--kind", "random", "--dim", "3", "--count=0"], "--count must be positive, got 0"),
            (["--kind", "mub", "--dim", "3", "--count=-1"], "--count must be positive, got -1"),
        ],
    )
    def test_flags_its_kind_does_not_read_are_rejected(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x.json"
        assert main(["generate", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_random_seed_defaults_to_zero(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", "--kind", "random", "--dim", "3", "--out", str(a)])
        main(["generate", "--kind", "random", "--dim", "3", "--seed", "0", "--out", str(b)])
        assert a.read_text() == b.read_text()

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
        # the second state's negative eigenvalue lies above the constructor's floor
        for rho, value in ((np.eye(2) / 2, 3.0), (np.diag([1.0 + 5e-11, -5e-11]), 1.0)):
            write_density_matrix(rho_path, eur.DensityMatrix(rho))
            assert main(["bounds", "--input", mub_triple_file, "--state", str(rho_path)]) == 0
            table = bound_lines(capsys.readouterr().out)
            assert all(math.isfinite(v) for v in table.values())
            assert table["MU_MULTI"] == pytest.approx(value, abs=1e-10)
            assert table["STATE_DEPENDENT"] == pytest.approx(value, abs=1e-10)

    def test_state_dependent_is_finite_where_the_chain_weight_is_tiny(self, tmp_path, capsys):
        chain, rho = tilted_qubit_chain_and_state()
        chain_path, rho_path = tmp_path / "chain.json", tmp_path / "rho.json"
        write_measurement_set(chain_path, chain)
        write_density_matrix(rho_path, rho)
        assert main(["bounds", "--input", str(chain_path), "--state", str(rho_path)]) == 0
        value = bound_lines(capsys.readouterr().out)["STATE_DEPENDENT"]
        esum = sum(eur.shannon_entropy(eur.outcome_distribution(b, rho)) for b in chain)
        assert math.isfinite(value) and value <= esum

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

    def test_missing_input_and_unwritable_out_stay_input_errors(self, tmp_path, capsys):
        """An OSError that names a file is an input error (exit 2), unlike a failed write to stdout."""
        missing, out = tmp_path / "chain.json", tmp_path / "no-such-dir" / "x.json"
        assert main(["bounds", "--input", str(missing)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
        assert main(["generate", "--kind", "mub", "--dim", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--param", "phi", "--a", "0.5", "--phi", "1"], "--phi applies to --param a only"),
            (["--param", "a", "--phi", "0", "--a", "0.3"], "--a applies to --param phi only"),
        ],
    )
    def test_flags_its_param_does_not_read_are_rejected(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x.csv"
        argv = ["scan", "--family", "paper-d3", *argv, "--range", "0:1", "--steps", "3", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_unknown_bound_name(self, tmp_path, capsys):
        rc = self.run_scan(tmp_path / "x.csv", ["--bounds", "tightest"])
        assert rc == 2
        assert "unknown bound" in capsys.readouterr().err

    def test_repeated_bound_name(self, tmp_path, capsys):
        rc = self.run_scan(tmp_path / "x.csv", ["--bounds", "mu-multi,scb-max,mu-multi"])
        assert rc == 2
        assert capsys.readouterr().err == "error: bound 'mu-multi' requested twice\n"
        assert list(tmp_path.iterdir()) == []

    def test_bad_range(self, tmp_path, capsys):
        rc = main(
            [
                "scan", "--family", "paper-d3", "--param", "a",
                "--range", "1..2", "--steps", "3", "--phi", "0", "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 2
        assert "START:STOP" in capsys.readouterr().err

    @pytest.mark.parametrize("phi", ["inf", "nan"])
    def test_non_finite_phi_is_one_error_line(self, tmp_path, capsys, phi):
        scan = [
            "scan", "--family", "paper-d3", "--param", "a",
            "--range", "0:1", "--steps", "3", "--phi", phi, "--out", str(tmp_path / "x.csv"),
        ]
        generate = ["generate", "--kind", "paper-d3", "--a", "0.5", "--phi", phi, "--out", str(tmp_path / "x.json")]
        for argv in (scan, generate):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(argv) == 2
            assert capsys.readouterr().err.splitlines() == [f"error: parameter phi must be finite, got {phi}"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text", ["nan:1", "0:nan", "0:inf", "-inf:0"])
    def test_non_finite_range_is_one_error_line(self, tmp_path, capsys, text):
        for param, fixed in (("phi", ["--a", "0.5"]), ("a", ["--phi", "0"])):
            argv = [
                "scan", "--family", "paper-d3", "--param", param,
                f"--range={text}", "--steps", "3", *fixed, "--out", str(tmp_path / "x.csv"),
            ]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(argv) == 2
            assert capsys.readouterr().err.splitlines() == [f"error: range endpoints must be finite, got {text!r}"]
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_range_width_is_one_error_line(self, tmp_path, capsys):
        """Both endpoints are finite, but STOP - START is not: the range is rejected, not its NaN grid."""
        argv = [
            "scan", "--family", "paper-d3", "--param", "phi",
            "--range", "-1e308:1e308", "--steps", "3", "--a", "0.5", "--out", str(tmp_path / "x.csv"),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == ["error: range width must be finite, got '-1e308:1e308'"]
        assert list(tmp_path.iterdir()) == []

    def test_out_of_range_grid_reports_first_bad_point(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        for steps, first_bad in (("3", "1.5"), ("5", "1.25")):
            argv = [
                "scan", "--family", "paper-d3", "--param", "a",
                "--range", "0.5:1.5", "--steps", steps, "--phi", "0", "--out", str(out),
            ]
            assert main(argv) == 2
            assert capsys.readouterr().err.splitlines() == [f"error: parameter a must lie in [0, 1], got {first_bad}"]
            assert not out.exists()

    def test_negative_range_start_takes_the_equals_form(self, tmp_path):
        """argparse reads the START:STOP of ``--range -1:1`` as an option; ``--range=-1:1`` scans it."""
        out = tmp_path / "x.csv"
        argv = [
            "scan", "--family", "paper-d3", "--param", "phi",
            "--range=-1:1", "--steps", "3", "--a", "0.4", "--out", str(out),
        ]
        assert main(argv) == 0
        names = list(SCAN_ORACLE)
        assert out.read_text() == scan_csv(names, loop_scan_rows(np.full(3, 0.4), np.array([-1.0, 0.0, 1.0]), names))

    def test_negative_range_start_takes_the_space_form(self, tmp_path, capsys):
        """``--range -1:1`` scans the same grid, to the byte, as ``--range=-1:1``."""
        common = ["scan", "--family", "paper-d3", "--param", "phi", "--steps", "3", "--a", "0.4", "--out"]
        assert main([*common, str(tmp_path / "eq.csv"), "--range=-1:1"]) == 0
        assert main([*common, str(tmp_path / "space.csv"), "--range", "-1:1"]) == 0
        assert (tmp_path / "space.csv").read_bytes() == (tmp_path / "eq.csv").read_bytes()
        assert capsys.readouterr().out.splitlines()[-1] == f"3 rows -> {tmp_path / 'space.csv'}"

    def test_range_followed_by_an_option_is_a_usage_error(self, tmp_path, capsys):
        argv = ["scan", "--family", "paper-d3", "--param", "phi", "--range", "--steps", "3", "--a", "0.4",
                "--out", str(tmp_path / "x.csv")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("error: argument --range: expected one argument\n")
        assert list(tmp_path.iterdir()) == []

    def test_single_step_is_the_range_start(self, tmp_path):
        out = tmp_path / "x.csv"
        argv = [
            "scan", "--family", "paper-d3", "--param", "phi",
            "--range", "0.25:3", "--steps", "1", "--a", "0.4", "--out", str(out),
        ]
        assert main(argv) == 0
        names = list(SCAN_ORACLE)
        assert out.read_text() == scan_csv(names, loop_scan_rows(np.array([0.4]), np.array([0.25]), names))


# sha256 of the benchmark's 2001-step phi scan; a copy of SCAN_SHA256[2001] in bench/workloads.py
BENCHMARK_SCAN_SHA256 = "b3e8c9991adc6732fdc59e341bf45939a9d877ab06d6699014955474ea3a5488"


def test_benchmark_scan_csv_bytes_are_pinned(tmp_path):
    out = tmp_path / "scan.csv"
    argv = [
        "scan", "--family", "paper-d3", "--param", "phi", "--range", "0:6.283185307179586",
        "--steps", "2001", "--a", "0.3", "--out", str(out),
    ]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BENCHMARK_SCAN_SHA256


def _bits(rows):
    return [tuple(float.hex(cell) for cell in row) for row in rows]


class TestBatchedScan:
    """Every cell of the batched scan equals the single-chain bound of its grid point, bit for bit."""

    @pytest.mark.parametrize(
        "a, phi",
        [
            (np.linspace(0.0, 1.0, 21), np.full(21, math.pi / 2)),
            (np.linspace(0.0, 1.0, 21), np.zeros(21)),
            (np.full(17, 0.3), np.linspace(0.0, 2 * math.pi, 17)),
            (np.repeat([0.0, 0.5, 1.0], 9), np.tile(np.arange(-4, 5) * (math.pi / 2), 3)),
        ],
        ids=["a-scan-half-pi", "a-scan-zero", "phi-scan", "phi-multiples-of-half-pi"],
    )
    def test_every_bound_subset_matches_the_loop(self, a, phi):
        names = list(SCAN_ORACLE)
        want = loop_scan_rows(a, phi, names)
        subsets = [list(c) for k in (1, 2, 3) for c in combinations(names, k)] + [names[::-1]]
        for subset in subsets:
            cols = [0, 1] + [2 + names.index(name) for name in subset]
            assert _bits(cli._scan_rows(a, phi, subset)) == _bits([[row[c] for c in cols] for row in want])

    def test_grid_longer_than_a_block(self, monkeypatch):
        steps = 2 * cli._SCAN_BLOCK + 3
        a, phi = np.full(steps, 0.7), np.linspace(-1.0, 7.0, steps)
        stacks, bank = [], cli._overlap_bank

        def recording_bank(v, *fixed):
            if fixed:  # a block's bank; the first call takes the tables of the two fixed bases
                stacks.append(v.shape[0])
            return bank(v, *fixed)

        monkeypatch.setattr(cli, "_overlap_bank", recording_bank)
        names = list(SCAN_ORACLE)
        assert _bits(cli._scan_rows(a, phi, names)) == _bits(loop_scan_rows(a, phi, names))
        assert stacks == [cli._SCAN_BLOCK, cli._SCAN_BLOCK, 3]

    def test_fixed_bases_products_are_taken_once_per_scan(self, monkeypatch):
        """The first two bases depend on neither a nor phi: their 4 products are taken once, and each
        grid point takes only the 5 that involve the third basis, 3 of them its rows against all."""
        steps = 2 * cli._SCAN_BLOCK + 3
        a, phi = np.linspace(0.0, 1.0, steps), np.full(steps, 0.4)
        products, inner = [], eur.core._inner

        def counting_inner(u, w):
            out = inner(u, w)
            products.append(out.size // 9)  # d = 3: one 3 x 3 product per table
            return out

        monkeypatch.setattr(eur.core, "_inner", counting_inner)
        names = list(SCAN_ORACLE)
        rows = cli._scan_rows(a, phi, names)
        assert products == [4] + [3 * k if i % 2 == 0 else 2 * k
                                  for k in (cli._SCAN_BLOCK, cli._SCAN_BLOCK, 3) for i in range(2)]
        monkeypatch.undo()
        assert _bits(rows) == _bits(loop_scan_rows(a, phi, names))

    def test_parameters_are_checked_before_the_bases(self, monkeypatch):
        def rejecting_bank(v):
            raise ValueError("basis rows are not orthogonal")

        monkeypatch.setattr(cli, "_overlap_bank", rejecting_bank)
        names = list(SCAN_ORACLE)
        bad_points = ((1.5, 0.0, r"a must lie in \[0, 1\], got 1.5"), (0.5, np.nan, "phi must be finite, got nan"))
        for a, phi, message in bad_points:
            with pytest.raises(ValueError, match=message):
                cli._scan_rows(np.array([0.5, a]), np.array([0.0, phi]), names)
        with pytest.raises(ValueError, match="not orthogonal"):
            cli._scan_rows(np.array([0.5]), np.array([0.0]), names)

    def test_readme_a_scan_csv_is_the_loop_csv(self, tmp_path):
        out = tmp_path / "scan.csv"
        argv = [
            "scan", "--family", "paper-d3", "--param", "a", "--range", "0:1", "--steps", "101",
            "--phi", "1.5707963267948966", "--bounds", "mu-multi,scb-max", "--out", str(out),
        ]
        assert main(argv) == 0
        names = ["mu-multi", "scb-max"]
        want = loop_scan_rows(np.linspace(0.0, 1.0, 101), np.full(101, 1.5707963267948966), names)
        assert out.read_text() == scan_csv(names, want)


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

    def test_state_mode_one_dimensional_chain(self, tmp_path, capsys):
        # d = 1 leaves 2d - 2 = 0 angles: each restart evaluates its one state
        path = tmp_path / "d1.json"
        write_measurement_set(path, [eur.computational_basis(1)] * 2)
        rc = main(["verify", "--input", str(path), "--mode", "state", "--restarts", "4", "--samples", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "objective_min = 0\n" in out
        assert "converged restarts: 4/4" in out
        assert "slack MU_MULTI" in out and "slack STATE_DEPENDENT" in out
        assert out.splitlines()[-1] == "CERTIFIED"

    def test_one_dimensional_chain_prints_no_negative_zero(self, tmp_path, capsys):
        # every state gives each left-hand side and bound exactly 0; over the default 200 rounds a
        # Born probability rounds to 1 + 2^-52, whose entropy must not print as a negative slack
        path = tmp_path / "d1.json"
        write_measurement_set(path, [eur.computational_basis(1)] * 2)
        for samples in (["--samples", "1"], []):
            assert main(["verify", "--input", str(path), "--mode", "state", "--restarts", "2", *samples]) == 0
            out = capsys.readouterr().out
            assert "spot  MU_TWO           0.000e+00" in out.splitlines()
            assert not [line for line in out.splitlines() if line.split()[-1].startswith("-")]

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

    def test_orders_rejected_in_memory_mode(self, mub_pair_file, capsys):
        for orders in ("shannon", "min"):
            rc = main(
                [
                    "verify", "--input", mub_pair_file, "--mode", "memory",
                    "--orders", orders, "--restarts", "1", "--samples", "1",
                ]
            )
            assert rc == 2
            assert "--orders applies to --mode state only" in capsys.readouterr().err

    def test_dim_b_rejected_in_state_mode(self, mub_pair_file, capsys):
        for dim_b in ("2", "5"):
            rc = main(
                [
                    "verify", "--input", mub_pair_file, "--mode", "state",
                    "--dim-b", dim_b, "--restarts", "1", "--samples", "1",
                ]
            )
            assert rc == 2
            assert "--dim-b applies to --mode memory only" in capsys.readouterr().err

    def test_memory_mode_defaults_to_qubit_memory(self, tmp_path, capsys):
        """On a qutrit chain a qubit memory is searched, and a qutrit memory has its exact minimum."""
        path = tmp_path / "mub3.json"
        write_measurement_set(path, eur.mub_set(3, 3))
        argv = ["verify", "--input", str(path), "--mode", "memory", "--restarts", "2", "--samples", "2"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert "converged restarts: 2/2\n" in default
        assert main(argv + ["--dim-b", "2"]) == 0
        assert capsys.readouterr().out == default
        assert main(argv + ["--dim-b", "3"]) == 0
        assert "converged restarts: 1/1\n" in capsys.readouterr().out

    @pytest.mark.parametrize("dim,count,dim_b", [(2, 3, 2), (2, 2, 5), (3, 4, 3)])
    def test_memory_mode_with_a_large_memory_does_not_search(self, tmp_path, capsys, monkeypatch, dim, count, dim_b):
        """d_B >= d_A: the minimum 0 is taken at the maximally entangled state, one start."""

        def never(*args):
            raise AssertionError("the memory search ran")

        monkeypatch.setattr(verifier, "_nelder_mead", never)
        path = tmp_path / "chain.json"
        write_measurement_set(path, eur.mub_set(dim, count))
        argv = ["--mode", "memory", "--dim-b", str(dim_b), "--samples", "4"]
        assert main(["verify", "--input", str(path), *argv]) == 0
        out = capsys.readouterr().out.splitlines()
        assert abs(float(out[0].removeprefix("objective_min = "))) <= 1e-15
        assert out[1] == "converged restarts: 1/1"
        assert out[-1] == "CERTIFIED"

    def test_state_mode_defaults_to_shannon(self, mub_pair_file, capsys):
        argv = ["verify", "--input", mub_pair_file, "--mode", "state", "--restarts", "2", "--samples", "2"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main(argv + ["--orders", "shannon"]) == 0
        assert capsys.readouterr().out == default

    def test_bad_samples_fail_before_minimization(self, mub_pair_file, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the minimizer ran")

        monkeypatch.setattr(cli, "minimize_entropy_sum", never)
        monkeypatch.setattr(cli, "minimize_conditional_entropy_sum", never)
        for mode in ("state", "memory"):
            rc = main(["verify", "--input", mub_pair_file, "--mode", mode, "--samples", "0"])
            assert rc == 2
            assert "samples must be >= 1" in capsys.readouterr().err

    def test_bad_dim_b_fails_before_spot_checks(self, mub_pair_file, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the spot checks ran")

        monkeypatch.setattr(cli, "spot_check_inequalities", never)
        for dim_b in ("0", "-2"):
            rc = main(["verify", "--input", mub_pair_file, "--mode", "memory", "--dim-b", dim_b])
            captured = capsys.readouterr()
            assert rc == 2
            assert captured.err == f"error: --dim-b must be positive, got {dim_b}\n"
            assert captured.out == ""

    def test_negative_seed_rejected(self, mub_pair_file, capsys):
        for mode in ("state", "memory"):
            rc = main(["verify", "--input", mub_pair_file, "--mode", mode, "--seed", "-3"])
            captured = capsys.readouterr()
            assert rc == 2
            assert captured.err == "error: --seed must be non-negative, got -3\n"
            assert captured.out == ""

    @pytest.mark.parametrize("mode", sorted(GOLDEN_VERIFY))
    def test_benchmark_calls_print_pinned_output(self, tmp_path, capsys, mode):
        """The benchmark's two verify calls, and four more, print these lines.  A value printed
        below 1e-12 in magnitude is rounding noise at an exact zero and only has to stay below 1e-12."""
        (dim, count), argv, expected = GOLDEN_VERIFY[mode]
        path = tmp_path / "chain.json"
        write_measurement_set(path, eur.mub_set(dim, count))
        assert main(["verify", "--input", str(path), *argv]) == 0
        got = capsys.readouterr().out.splitlines()
        assert len(got) == len(expected)
        for line, want in zip(got, expected):
            label, _, value = want.rpartition(" ")
            try:
                noise = abs(float(value)) < 1e-12
            except ValueError:
                noise = False
            if noise:
                assert line.rpartition(" ")[0] == label and abs(float(line.rpartition(" ")[2])) < 1e-12, line
            else:
                assert line == want

    def test_bad_restarts(self, mub_pair_file, capsys):
        rc = main(
            ["verify", "--input", mub_pair_file, "--mode", "state", "--restarts", "0"]
        )
        assert rc == 2
        assert "restarts" in capsys.readouterr().err


# Chains on which the bounds are attained, and the bounds of each verify mode that are tight there:
# at I/d (state mode), and at the maximally entangled state and I/d x I/d (memory mode).
TIGHT_CHAINS = {"mub2": lambda: eur.mub_set(2), "mub2x2": lambda: eur.mub_set(2, 2), "mub3": lambda: eur.mub_set(3),
                "random3": lambda: [eur.random_basis(3, 11 + k) for k in range(3)]}  # generate --kind random --dim 3 --seed 11
TIGHT_CELLS = (
    [(c, "state", b) for c in ("mub2", "mub2x2", "mub3") for b in ("MU_MULTI", "STATE_DEPENDENT", "SCB_MAX", "MU_TWO")]
    + [("mub2", "state", "WEIGHTED"), ("random3", "state", "STATE_DEPENDENT")]
    + [(c, "memory", b) for c in ("mub2", "mub2x2", "mub3") for b in ("MEMORY_MULTI", "MEMORY_PURE", "BERTA_TWO")]
)


@pytest.mark.parametrize("delta", [0.0, 1e-3, 1e-9])
@pytest.mark.parametrize("chain,mode,bound", TIGHT_CELLS)
def test_a_bound_raised_where_it_is_attained_fails(tmp_path, capsys, monkeypatch, chain, mode, bound, delta):
    """A bound raised by 1e-3, or by 1e-9, on a chain where it is tight fails ``verify``, whatever the
    random draws; not raised, it certifies.  The spot checks run in process, where the raise applies."""
    name = eur.BoundName[bound]
    values = eur.bounds._state_bounds if mode == "state" else eur.bounds._memory_bounds

    def raised(*args, **kwargs):
        out = values(*args, **kwargs)
        return out | {name: out[name] + delta} if name in out else out

    monkeypatch.setattr(eur.bounds, values.__name__, raised)
    path = tmp_path / "chain.json"
    write_measurement_set(path, TIGHT_CHAINS[chain]())
    memory = ["--dim-b", "2"] if mode == "memory" else []
    rc = main(["verify", "--input", str(path), "--mode", mode, *memory, "--restarts", "2", "--samples", "4"])
    assert (rc, capsys.readouterr().out.splitlines()[-1]) == ((1, "VERIFICATION FAILED") if delta else (0, "CERTIFIED"))


def test_tight_slacks_sit_far_inside_the_certification_tolerance(tmp_path, capsys):
    """On the largest chain measured, d = 7 with a d_B = 7 memory, every slack and spot value that
    rounds to 0 (the bounds attained at Phi, I/d and I/d x I/d) is within 5 % of the tolerance."""
    path = tmp_path / "chain.json"
    write_measurement_set(path, eur.mub_set(7))
    assert main(["verify", "--input", str(path), "--mode", "memory", "--dim-b", "7"]) == 0
    values = [float(line.split()[-1]) for line in capsys.readouterr().out.splitlines()
              if line.startswith(("slack ", "spot "))]
    tight = [v for v in values if abs(v) < 1e-9]
    assert len(tight) >= 7
    assert max(map(abs, tight)) <= 0.05 * verifier.CERTIFICATION_TOL


TERM_BUILDERS = ("_deutsch_steps", "_mu_steps", "_pair_bounds", "_weighted")


@pytest.fixture
def builder_calls(monkeypatch):
    """Calls of each builder of the chain's state-independent terms, counted on ``eur.bounds``."""
    calls = {}

    def counted(name):
        fn = getattr(eur.bounds, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for name in TERM_BUILDERS:
        monkeypatch.setattr(eur.bounds, name, counted(name))
    return calls


@pytest.mark.parametrize("argv", [["--mode", "state"], ["--mode", "memory", "--dim-b", "2"]])
def test_verify_builds_the_chain_constants_once(tmp_path, capsys, builder_calls, argv):
    """One ``verify`` runs each builder of the chain's state-independent terms once, whatever its
    spot-check blocks and gap-kernel calls: they read the chain's cached ``terms``."""
    path = tmp_path / "chain.json"
    write_measurement_set(path, eur.mub_set(3))
    assert main(["verify", "--input", str(path), *argv]) == 0
    assert capsys.readouterr().out.endswith("CERTIFIED\n")
    assert builder_calls == dict.fromkeys(("_deutsch_steps", "_mu_steps", "_pair_bounds"), 1)


@pytest.mark.parametrize("argv,built", [([], TERM_BUILDERS), (["--best-order"], TERM_BUILDERS),
                                        (["--orders", "min"], ("_deutsch_steps",))],
                         ids=["plain", "best-order", "orders-min"])
def test_bounds_builds_each_printed_term_once(tmp_path, capsys, builder_calls, argv, built):
    """``bounds`` on an N = 3 chain builds only the terms it prints, each once: a best-order run folds
    no input-order DEUTSCH_MULTI or MU beside its two searches, and ``--orders min`` builds only the
    Deutsch steps."""
    path = tmp_path / "chain.json"
    write_measurement_set(path, eur.mub_set(2))
    assert main(["bounds", "--input", str(path), *argv]) == 0
    assert len(capsys.readouterr().out.splitlines()) == (2 if "min" in argv else 5)
    assert builder_calls == dict.fromkeys(built, 1)


class TestSpotChecks:
    """``verify`` runs its spot checks after the minimizer, in this process."""

    @staticmethod
    def _chain(tmp_path, mode):
        (dim, count), argv, _ = GOLDEN_VERIFY[mode]
        path = tmp_path / "chain.json"
        write_measurement_set(path, eur.mub_set(dim, count))
        return ["verify", "--input", str(path), *argv]

    @pytest.mark.parametrize("mode", ["state", "memory", "state-min", "memory-dim-b-3"])
    def test_run_once_in_this_process(self, tmp_path, capsys, monkeypatch, mode):
        """The benchmark's two calls, an ``--orders min`` call and a d_B = 3 memory call.  The
        benchmark's tracer sees a call only where it runs in the traced process."""
        calls, spot_checks = [], cli.spot_check_inequalities

        def counting(*args, **kwargs):
            calls.append(None)
            return spot_checks(*args, **kwargs)

        monkeypatch.setattr(cli, "spot_check_inequalities", counting)
        assert main(self._chain(tmp_path, mode)) == 0
        assert capsys.readouterr().out.endswith("CERTIFIED\n")
        assert len(calls) == 1

    def test_spot_check_error_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("spot checks failed")

        monkeypatch.setattr(cli, "spot_check_inequalities", broken)
        assert (main(self._chain(tmp_path, "memory")), *capsys.readouterr()) == (2, "", "error: spot checks failed\n")


def _corpus_calls():
    """The argv of every call of ``tools/output_corpus.py``'s corpus."""
    path = Path(__file__).resolve().parent.parent / "tools" / "output_corpus.py"
    spec = importlib.util.spec_from_file_location("output_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.corpus_calls()


def _parsed(parser, argv, capsys):
    """``vars`` of the parsed ``argv``, or the exit code and output of an argparse exit."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code, capsys.readouterr()


class TestParser:
    @pytest.fixture
    def added(self, monkeypatch):
        """(parser prog, flag) of every ``add_argument`` call, in call order."""
        calls, add_argument = [], argparse.ArgumentParser.add_argument

        def recording(parser, *args, **kwargs):
            calls.append((parser.prog, args[0]))
            return add_argument(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", recording)
        return calls

    def test_main_adds_only_the_called_subcommands_arguments(self, tmp_path, added):
        """The whole parser takes 31 arguments; a call builds the top level's help flag and its own
        subcommand's arguments only, in the whole parser's order."""
        cli.build_parser()
        full, chain, out = list(added), str(tmp_path / "pair.json"), str(tmp_path / "out")
        assert len(full) == 31
        calls = {
            "generate": ["--kind", "mub", "--dim", "2", "--count", "2", "--out", chain],
            "bounds": ["--input", chain],
            "scan": ["--family", "paper-d3", "--param", "a", "--range", "0:1", "--steps", "3", "--phi", "0",
                     "--out", out],
            "verify": ["--input", chain, "--mode", "state", "--restarts", "1", "--samples", "1"],
        }
        for command, argv in calls.items():
            added.clear()
            assert main([command, *argv]) == 0
            assert added == [call for call in full if call[0] in ("eur", f"eur {command}")]
            assert len(added) < len(full)

    def test_named_parser_parses_as_the_whole_one(self, capsys):
        """Every corpus call parses to the same namespace, its handler the same function, with
        only its subcommand's parser as with all four; an argparse exit would exit alike."""
        for argv in _corpus_calls():
            assert _parsed(cli.build_parser(argv[0]), argv, capsys) == _parsed(cli.build_parser(), argv, capsys), argv

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


# (subcommand, arguments, message) of calls that break one flag rule: a flag the variant does not read,
# a missing required flag, an integer flag below its floor, a value its subcommand rejects.  "{chain}" is
# a qubit MUB pair, "{out}" the output.
_SCAN = ["--family", "paper-d3", "--range", "0:1", "--out", "{out}"]
_PHI_SCAN = ["--family", "paper-d3", "--param", "phi", "--steps", "3", "--a", "0.5", "--out", "{out}"]
_VERIFY = ["--input", "{chain}", "--restarts", "1", "--samples", "1"]
FLAG_RULE_ERRORS = [
    ("scan", [*_SCAN, "--param", "phi", "--steps", "3", "--a", "0.5", "--phi", "1"], "--phi applies to --param a only"),
    ("verify", [*_VERIFY, "--mode", "state", "--dim-b", "2"], "--dim-b applies to --mode memory only"),
    ("generate", ["--out", "{out}", "--kind", "mub", "--dim", "3", "--seed", "0"],
     "--seed applies to --kind random only"),
    ("scan", [*_SCAN, "--param", "a", "--steps", "3"], "--param a requires --phi"),
    ("scan", [*_SCAN, "--param", "phi", "--steps", "3"], "--param phi requires --a"),
    ("generate", ["--out", "{out}", "--kind", "mub"], "--kind mub requires --dim"),
    ("generate", ["--out", "{out}", "--kind", "random", "--count", "2"], "--kind random requires --dim"),
    ("generate", ["--out", "{out}", "--kind", "paper-d3", "--phi", "0"], "--kind paper-d3 requires --a and --phi"),
    ("scan", [*_SCAN, "--param", "a", "--steps", "0", "--phi", "0"], "--steps must be positive, got 0"),
    ("verify", [*_VERIFY, "--mode", "memory", "--dim-b", "-1"], "--dim-b must be positive, got -1"),
    ("verify", [*_VERIFY, "--mode", "state", "--seed", "-2"], "--seed must be non-negative, got -2"),
    ("generate", ["--out", "{out}", "--kind", "mub", "--dim", "3", "--count", "0"], "--count must be positive, got 0"),
    ("generate", ["--out", "{out}", "--kind", "random", "--dim", "3", "--seed", "-1"],
     "--seed must be non-negative, got -1"),
    ("scan", [*_PHI_SCAN, "--range", "x:1"], "range endpoints must be numbers, got 'x:1'"),
    ("scan", [*_PHI_SCAN, "--range", "1:0"], "range start must not exceed stop, got '1:0'"),
    ("scan", [*_PHI_SCAN, "--range", "0:1", "--bounds", ","], "no bounds requested"),
]


@pytest.mark.parametrize("command, argv, message", FLAG_RULE_ERRORS)
def test_a_broken_flag_rule_is_one_error_line(tmp_path, capsys, command, argv, message):
    chain = tmp_path / "chain.json"
    write_measurement_set(chain, eur.mub_set(2, 2))
    argv = [arg.format(chain=chain, out=tmp_path / "out") for arg in argv]
    assert main([command, *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == [chain]


def _child(*args):
    """Run a fresh interpreter with ``args``, importing ``eur`` from this checkout."""
    src = str(Path(eur.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


def _python(code, *args):
    """Run ``code`` with ``args`` in a fresh interpreter that imports ``eur`` from this checkout."""
    return _child("-c", code, *args)


def test_malformed_files_exit_2_without_traceback(tmp_path):
    """Every malformed input ends ``python -m eur.cli`` with one error line and exit code 2."""
    good = tmp_path / "good.json"
    write_measurement_set(good, eur.mub_set(2, 2))
    for name in sorted(MALFORMED_FILES):
        path = write_malformed(tmp_path, name)
        argv = ["--input", path] if MALFORMED_FILES[name][0] == "set" else ["--input", str(good), "--state", path]
        proc = _child("-m", "eur.cli", "bounds", *argv)
        assert proc.returncode == 2, (name, proc.stderr)
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr, (name, proc.stderr)
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}: "), (name, proc.stderr)


def test_verify_runs_leave_scipy_unloaded(tmp_path):
    """A full ``verify`` in both modes minimizes without ever importing scipy."""
    path = tmp_path / "pair.json"
    write_measurement_set(path, eur.mub_set(2, 2))
    code = (
        "import sys\n"
        "from eur.cli import main\n"
        "common = ['--input', sys.argv[1], '--restarts', '2', '--samples', '4']\n"
        "codes = [main(['verify', '--mode', 'state', *common]),\n"
        "         main(['verify', '--mode', 'memory', '--dim-b', '2', *common])]\n"
        "print('exit codes:', codes, 'scipy loaded:', 'scipy' in sys.modules)\n"
    )
    proc = _python(code, str(path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("CERTIFIED") == 2
    assert proc.stdout.splitlines()[-1] == "exit codes: [0, 0] scipy loaded: False"


class TestStartup:
    """Importing the package and printing help load no scipy."""

    def test_import_leaves_scipy_unloaded(self):
        proc = _python("import sys, eur, eur.cli; print('scipy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

    def test_help_leaves_scipy_unloaded(self):
        code = (
            "import sys\n"
            "from eur.cli import main\n"
            "for command in ('bounds', 'verify'):\n"
            "    try:\n"
            "        main([command, '--help'])\n"
            "    except SystemExit:\n"
            "        pass\n"
            "print('scipy loaded:', 'scipy' in sys.modules)\n"
        )
        proc = _python(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("usage: eur") == 2
        assert proc.stdout.splitlines()[-1] == "scipy loaded: False"
